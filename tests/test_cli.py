import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import gl_to_json

from tyang.cli import InputError, _parser, build_daha_module, main, run_scenario
from tyang.glmn import ParitySeq, make_Lab
from tyang.superlinalg import RFMatrix

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "tyang", "data", "scenarios"
)


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, name)


class TestRunScenario:
    def test_rank1_certificate_scenario(self):
        report, code = run_scenario(scenario_path("rank1-L12.json"))
        assert code == 0
        assert report["overall"] == "pass"
        cert = next(c for c in report["checks"] if c["id"] == "rank1-certificate")
        assert cert["data"]["P"] == ["3", "4", "1"]

    def test_negative_control_fails_with_witness(self):
        report, code = run_scenario(scenario_path("twisted-negative-control.json"))
        assert code == 1
        refl = next(c for c in report["checks"] if c["id"] == "reflection-equation")
        assert refl["status"] == "fail"
        assert "point" in refl["witness"]
        # The deliberate failure is the expected outcome.
        assert report["expectations"] == "pass"

    def test_all_positive_scenarios_pass(self):
        for name in sorted(os.listdir(SCENARIO_DIR)):
            if "negative" in name:
                continue
            report, code = run_scenario(scenario_path(name))
            assert code == 0, (name, report)

    def test_only_filter(self):
        report, code = run_scenario(
            scenario_path("daha-principal-l2.json"), only="relations"
        )
        assert [c["id"] for c in report["checks"]] == ["relations"]
        assert code == 0

    def test_only_compares_the_expectations_of_the_check_it_ran(self, capsys):
        # rank1-L12 pins rank1-certificate and irreducibility, which did not run.
        assert main(["run", scenario_path("rank1-L12.json"), "--only", "weight-symmetry"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in report["checks"]] == ["weight-symmetry"]
        assert report["expectations"] == "pass"

    def test_only_still_compares_the_selected_check(self, tmp_path):
        with open(scenario_path("rank1-L12.json")) as fh:
            scenario = json.load(fh)
        scenario["expectations"]["checks"]["rank1-certificate"]["P"] = ["3", "4", "2"]
        path = tmp_path / "mispinned.json"
        path.write_text(json.dumps(scenario))
        report, code = run_scenario(str(path), only="rank1-certificate")
        assert code == 1
        assert report["expectations"] == [{"field": "rank1-certificate.P", "expected": ["3", "4", "2"],
                                           "got": ["3", "4", "1"]}]

    def test_only_on_a_failing_check_exits_1(self):
        report, code = run_scenario(scenario_path("twisted-negative-control.json"), only="reflection-equation")
        assert code == 1
        assert [c["status"] for c in report["checks"]] == ["fail"]

    def test_only_unknown_check(self):
        with pytest.raises(InputError):
            run_scenario(scenario_path("daha-principal-l2.json"), only="nope")

    def test_max_dim_guard(self):
        with pytest.raises(InputError):
            run_scenario(scenario_path("yangian-L12-tensor.json"), max_dim=2)


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"rep{run}.json"
            code = main(["run", scenario_path("rank1-L12.json"), "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# SHA-256 of each shipped scenario's `tyang run` report, pinned so that
# refactors are held to byte-identical output across commits.
GOLDEN_REPORTS = {
    "appendix-k2-l2.json": (0, "fd48bff2ba03ab7d78c7545e556721f9f88188e044f36666c730ffd098930c16"),
    "classify-vector-eps-diff.json": (0, "65a691c5f4f67f7570935ae763805cc37b6645c3704713736460aa2d5bdb5e16"),
    "classify-vector-eps-equal.json": (0, "ea126f6fe71cb8cf14cd5a664177fcf761b980891aea443edabaacde310fba45"),
    "daha-principal-l2.json": (0, "111845454c1fc3e4bc2a22bd6c730de0ce8874a2fe8b3e5b02bf5b25e353145d"),
    "drinfeld-char-21.json": (0, "f04049bdf541e78ff4208fb385026d481acfcc3c0327cd1900f119709f1dc22a"),
    "drinfeld-principal-l2.json": (0, "2d21645abba2b9eea638b81eb1845952a550c64f48a61e8ce68715c384a9074b"),
    "rank1-L12.json": (0, "d349d7f5e9c5cf426e5eb22ba9ff51f5739754d7030a1757bb0fc39fc7d25bbd"),
    "reduce-over-L12.json": (0, "25cede47cc2091d13c20e238a0a625a41a33d040f008c0d190feda3c8adf2729"),
    "reduce-star-vector-k3.json": (0, "cd246439a6a96afdd93b962038a556065bd64c84539b825469ff97ec81d3b502"),
    "reduce-under-vector-odd.json": (0, "24ec85e0d03f96deb9f0ba10919a2b31239ed9f5b5c1ce2bba37b2a255384b93"),
    "twisted-L12-cgamma.json": (0, "d6a3936f93331abf40083397752f11875e53bb9abe533568f44c7a633e0ea412"),
    "twisted-dual-tensor.json": (0, "245b80776105504c0fa58d917f01a2c8e7fc6be82b0cecd269d8c07c79ce17fa"),
    "twisted-json-L12.json": (0, "49685d45b7716d9b2a6cd320208d7265e6638efcce68e0f409fd4297a2026b3b"),
    "twisted-negative-control.json": (1, "b52f5e80d29570423bf79cb52ab973234a7442bf81722b16a2f7caa07cfe3f1c"),
    "twisted-vector-gamma.json": (0, "389292152ff1b254b3f6abed99aa812b421d7633a32983194c40e16bb2783a2b"),
    "yangian-L12-tensor.json": (0, "6dc79dee80cd0525038ec11ca578a43a5d83f8aa733851c36bbf3cd4622f3475"),
    "yangian-dual-L12.json": (0, "3f28a6330c56b6cc16f52332871e3e421a290cceadbbe2089f537a4f1871fe29"),
}


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_report_digest(self, name, tmp_path):
        want_code, want_digest = GOLDEN_REPORTS[name]
        out = tmp_path / "report.json"
        assert main(["run", scenario_path(name), "--out", str(out)]) == want_code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want_digest

    def test_no_pipeline_builds_a_ratfun_matrix(self, tmp_path, monkeypatch):
        # Every family is a cleared form: the shipped scenarios give their
        # pinned reports with the RatFun matrix type unusable.
        def refuse(*args, **kwargs):
            raise AssertionError("an RFMatrix was built")

        monkeypatch.setattr(RFMatrix, "__init__", refuse)
        for name in sorted(os.listdir(SCENARIO_DIR)):
            want_code, want_digest = GOLDEN_REPORTS[name]
            out = tmp_path / name
            assert main(["run", scenario_path(name), "--out", str(out)]) == want_code
            assert hashlib.sha256(out.read_bytes()).hexdigest() == want_digest


LAB12 = {"type": "Lab", "s1": 1, "a": "1", "b": "2"}


B_L12 = {"type": "from-T", "t": {"type": "evaluation", "module": LAB12}, "eps": [1, 1]}
CHAR21 = {"type": "char", "l": 1, "theta1": "1", "theta2": "2"}
C_GAMMA_0 = {"type": "c-gamma", "ps": [], "eps": [], "gamma": "1/2"}
C_GAMMA_1 = {"type": "c-gamma", "ps": [1], "eps": [-1], "gamma": "1/2"}
APPENDIX = {"name": "appendix", "pipeline": "appendix", "inputs": {"ps": [1, -1], "eps": [1, -1], "l": 2}}
PRINCIPAL_L2 = {"type": "principal", "l": 2, "theta1": "1", "theta2": "2", "lambda": ["3", "1"]}
DAHA_JSON_A1 = {"l": 1, "kind": "A", "theta1": "1", "dim": 1, "sigma": [], "y": [[["2"]]]}


def _payload(kind, edit):
    """A b-json block (the shipped L(1, 2) payload) or a gl-json block
    (L(1, 2)), with edit applied to a copy of its data."""
    if kind == "b-json":
        with open(scenario_path("twisted-json-L12.json")) as fh:
            data = json.load(fh)["inputs"]["b"]["data"]
    else:
        data = gl_to_json(make_Lab(1, 1, 2))
    edit(data)
    return {"type": kind, "data": data}


# b_11(u) = u on a one-dimensional module: no series in u^-1.
B_JSON_U = {"type": "b-json", "data": {
    "ctx": {"s": [1, -1], "eps": [1, 1]}, "dim": 1, "parities": [0],
    "b": {"1,1": [[{"num": ["0", "1"], "den": ["1"]}]], "1,2": [[{"num": [], "den": ["1"]}]],
          "2,1": [[{"num": [], "den": ["1"]}]], "2,2": [[{"num": ["1"], "den": ["1"]}]]}}}


def _lab_gl_json(edit):
    return {"type": "evaluation", "module": _payload("gl-json", edit)}


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "pipeline, inputs, named",
        [
            ("verify-yangian", {}, "build_taction"),
            ("verify-yangian", {"t": {"type": "evaluation", "module": dict(LAB12, a="1/0")}}, "build_taction"),
            ("verify-yangian", {"t": {"type": "evaluation", "module": LAB12, "z": 1.5}}, "build_taction"),
            ("verify-twisted", {"b": dict(B_L12, eps=[1, 2])}, "build_baction"),
            ("appendix", {"ps": [1, -1], "eps": [1, -1]}, "inputs['l']"),
            ("classify", {"b": B_L12}, "inputs['eta']"),
            ("reduce", {"b": B_L12}, "inputs['mode']"),
            ("drinfeld", {"m": CHAR21, "eps": [1, -1]}, "inputs['ps']"),
            ("drinfeld", {"m": CHAR21, "ps": [1, -1]}, "inputs['eps']"),
            ("reduce", {"b": B_L12, "mode": "star"}, "inputs['a']"),
            ("reduce", {"b": B_L12, "mode": "star", "a": 2}, "inputs['a']"),
            ("drinfeld", {"m": CHAR21, "ps": [1, -1], "eps": [1, -1], "expansion": "false"}, "inputs['expansion']"),
            ("drinfeld", {"m": CHAR21, "ps": [1, -1], "eps": [1, -1], "expansion": {"a": 1}}, "inputs['expansion']"),
            ("drinfeld", {"m": CHAR21, "ps": [1, -1], "eps": [1, -1], "expansion": []}, "inputs['expansion']"),
        ],
        ids=["missing-t", "zero-denominator", "float-z", "eps-value", "appendix-missing-l",
             "classify-missing-eta", "reduce-missing-mode", "drinfeld-missing-ps", "drinfeld-missing-eps",
             "reduce-star-missing-a", "reduce-star-a-out-of-range", "expansion-string", "expansion-object",
             "expansion-list"],
    )
    def test_constructor_errors_exit_2(self, pipeline, inputs, named, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "pipeline": pipeline, "inputs": inputs}))
        assert main(["run", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario",
        [5, None, dict(APPENDIX, pipeline=[1]), dict(APPENDIX, inputs=[1]),
         dict(APPENDIX, expectations=[1]), dict(APPENDIX, expectations=1.5),
         dict(APPENDIX, expectations={"checks": 5}), dict(APPENDIX, expectations={"checks": {"x": 5}}),
         # A present block is an object, even when it is empty or falsy.
         dict(APPENDIX, expectations=[]), dict(APPENDIX, expectations=0), dict(APPENDIX, expectations=""),
         dict(APPENDIX, expectations=False), dict(APPENDIX, expectations=None),
         dict(APPENDIX, expectations={"checks": []}), dict(APPENDIX, expectations={"checks": 0}),
         dict(APPENDIX, expectations={"checks": None}),
         # Its keys are overall and checks only, and overall is pass or fail.
         dict(APPENDIX, expectations={"overal": "fail"}), dict(APPENDIX, expectations={"overall": "maybe"})],
        ids=["top-level-int", "top-level-null", "pipeline-list", "inputs-list", "expectations-list",
             "expectations-float", "expectation-checks-int", "expectation-fields-int",
             "expectations-empty-list", "expectations-zero", "expectations-empty-string", "expectations-false",
             "expectations-null", "expectation-checks-empty-list", "expectation-checks-zero",
             "expectation-checks-null", "expectations-misspelt-key", "expectation-overall-maybe"],
    )
    def test_malformed_envelope_exits_2(self, scenario, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize(
        "pipeline, inputs, message",
        [
            ("verify-yangian", {"t": 5}, "must be a JSON object, got int"),
            ("verify-yangian", {"t": [1]}, "must be a JSON object, got list"),
            ("verify-yangian", {"t": {"type": "evaluation", "module": 3}}, "must be a JSON object, got int"),
            ("daha", {"m": 1.5}, "must be a JSON object, got float"),
            ("drinfeld", {"m": CHAR21, "ps": [1, -1], "eps": [1, -1], "epsilon": 0}, "epsilon must be +-1"),
            ("appendix", {"ps": [1, -1], "eps": [1, -1], "l": 0}, "l must be at least 1"),
            ("appendix", {"ps": [1, -1], "eps": [1, -1], "l": -5}, "l must be at least 1"),
            ("daha", {"m": dict(PRINCIPAL_L2, **{"lambda": ["1"]})}, "lambda has 1 entries, not l = 2"),
            ("daha", {"m": PRINCIPAL_L2, "center": [{"mono": [2], "coeff": "1"}]}, "is not 2 nonnegative exponents"),
            ("daha", {"m": PRINCIPAL_L2, "center": [{"mono": [-3, 0], "coeff": "1"}]}, "is not 2 nonnegative exponents"),
            ("daha", {"m": PRINCIPAL_L2, "center": [{"mono": [200000, 0], "coeff": "1"}]},
             "monomial degree 200000 exceeds the safety cap 64"),
            ("verify-twisted", {"b": B_L12, "eta": ["1"]}, "the vector has 1 entries, not dim = 2"),
            ("verify-yangian", {"t": {"type": "evaluation", "module": LAB12}, "xi": ["1", "0", "0"]},
             "the vector has 3 entries, not dim = 2"),
            ("verify-yangian", {"t": {"type": "evaluation", "module": {"type": "gl-json", "data": {
                "ps": [1, -1], "parities": [0, 1], "dim": 2, "e": []}}}}, "'e' must be an object"),
            ("verify-twisted", {"b": {"type": "b-json", "data": {
                "ctx": {"s": [1, -1], "eps": [1, 1]}, "parities": [0, 1], "dim": 2, "b": []}}}, "'b' must be an object"),
            ("classify", {"b": {"type": "from-T", "t": {"type": "evaluation", "module": {"type": "vector", "ps": [1, 1, -1]}},
                                "eps": [1, 1, 1]}, "eta": ["1", "0", "0"]}, "classify needs kappa = 2, got kappa = 3"),
            ("verify-twisted", {"b": _payload("b-json", lambda d: d["b"].update({"1,1": d["b"]["1,1"][:1]}))},
             "'b' block '1,1' is not a 2 x 2 matrix"),
            ("verify-twisted", {"b": _payload("b-json", lambda d: d["b"].update(
                {"2,2": [row[:1] for row in d["b"]["2,2"]]}))}, "'b' block '2,2' is not a 2 x 2 matrix"),
            ("verify-twisted", {"b": _payload("b-json", lambda d: (d.update(parities=[0]), d.pop("dim")))},
             "'b' block '1,1' is not a 1 x 1 matrix"),
            ("verify-twisted", {"b": _payload("b-json", lambda d: d.update(parities=[0]))},
             "the parity list has 1 entries, not dim = 2"),
            ("verify-twisted", {"b": _payload("b-json", lambda d: d["b"].update({"3,1": d["b"]["1,1"]}))},
             "'b' block '3,1' is not one pair of indices in 1..2"),
            ("verify-twisted", {"b": _payload("b-json", lambda d: d.update(b={}))}, "'b' has 0 of the 4 blocks"),
            ("classify", {"b": _payload("b-json", lambda d: d["b"].pop("1,2")), "eta": ["1", "0"]},
             "'b' has 3 of the 4 blocks"),
            ("verify-twisted", {"b": B_JSON_U, "eta": ["1"]}, "b_11(u) is not a series in u^-1"),
            ("classify", {"b": B_JSON_U, "eta": ["1"]}, "b_11(u) is not a series in u^-1"),
            ("verify-yangian", {"t": _lab_gl_json(lambda d: d["e"].update({"1,1": [["1"]]}))},
             "'e' block '1,1' is not a 2 x 2 matrix"),
            ("verify-yangian", {"t": _lab_gl_json(lambda d: d["e"].update({"3,1": d["e"]["1,1"]}))},
             "'e' block '3,1' is not one pair of indices in 1..2"),
            # Integer fields take JSON integers only: no truncation, no bools, no strings.
            ("appendix", {"ps": [1, -1], "eps": [1, -1], "l": 2.9},
             "inputs['l']: TypeError: expected a JSON integer, got 2.9"),
            ("appendix", {"ps": [1, -1], "eps": [1, -1], "l": True},
             "inputs['l']: TypeError: expected a JSON integer, got True"),
            ("drinfeld", {"m": CHAR21, "ps": [1, -1], "eps": [1, -1], "epsilon": "1"},
             "inputs['epsilon']: TypeError: expected a JSON integer, got '1'"),
            ("drinfeld", {"m": CHAR21, "ps": [1, -1], "eps": [1, -1], "epsilon": 1.0},
             "inputs['epsilon']: TypeError: expected a JSON integer, got 1.0"),
            ("daha", {"m": dict(CHAR21, l=2.5)}, "l must be a JSON integer, got 2.5"),
            ("daha", {"m": dict(PRINCIPAL_L2, l="2")}, "l must be a JSON integer, got '2'"),
            ("daha", {"m": dict(CHAR21, sign_sigma=True)}, "sign_sigma must be a JSON integer, got True"),
            ("daha", {"m": dict(CHAR21, sign_zeta=-1.0)}, "sign_zeta must be a JSON integer, got -1.0"),
            ("daha", {"m": {"type": "daha-json", "data": dict(DAHA_JSON_A1, dim=1.0)}},
             "dim must be a JSON integer, got 1.0"),
            ("daha", {"m": {"type": "daha-json", "data": dict(DAHA_JSON_A1, l=True)}},
             "l must be a JSON integer, got True"),
            ("verify-yangian", {"t": {"type": "evaluation", "module": dict(LAB12, s1=1.0)}},
             "s1 must be a JSON integer, got 1.0"),
            ("verify-twisted", {"b": {"type": "corrupt-sign", "base": B_L12, "i": "1", "j": 2}},
             "i must be a JSON integer, got '1'"),
            ("verify-twisted", {"b": {"type": "corrupt-sign", "base": B_L12, "i": 1, "j": 2.0}},
             "j must be a JSON integer, got 2.0"),
            ("verify-twisted", {"b": {"type": "corrupt-sign", "base": B_L12, "i": 3, "j": 1}},
             "corrupt-sign needs 1 <= i, j <= kappa = 2, got i = 3, j = 1"),
            ("reduce", {"b": B_L12, "mode": "star", "a": 1.0}, "a must be a JSON integer, got 1.0"),
            ("reduce", {"b": B_L12, "mode": "over", "a": "1"},
             "inputs['a']: TypeError: expected a JSON integer, got '1'"),
            ("daha", {"m": PRINCIPAL_L2, "center": [{"mono": [2.0, 0], "coeff": "1"}]},
             "each exponent must be a JSON integer, got 2.0"),
            ("appendix", {"ps": [True, -1], "eps": [1, -1], "l": 2}, "each ps entry must be a JSON integer, got True"),
            ("appendix", {"ps": [1, -1], "eps": ["1", -1], "l": 2}, "each eps entry must be a JSON integer, got '1'"),
            ("verify-twisted", {"b": dict(B_L12, eps=[1.0, 1])}, "each eps entry must be a JSON integer, got 1.0"),
            ("verify-yangian", {"t": {"type": "trivial", "ps": [1, 0.5]}},
             "each ps entry must be a JSON integer, got 0.5"),
            # An empty parity sequence (kappa = 0) is refused in every pipeline that reads one.
            ("verify-yangian", {"t": {"type": "trivial", "ps": []}},
             "inputs['t']: ParameterError: a parity sequence needs at least one entry"),
            ("verify-twisted", {"b": C_GAMMA_0},
             "inputs['b']: ParameterError: a parity sequence needs at least one entry"),
            ("reduce", {"b": C_GAMMA_0, "mode": "under"},
             "inputs['b']: ParameterError: a parity sequence needs at least one entry"),
            ("drinfeld", {"m": CHAR21, "ps": [], "eps": []},
             "inputs['ps']: ParameterError: a parity sequence needs at least one entry"),
            ("appendix", {"ps": [], "eps": [], "l": 2},
             "inputs['ps']: ParameterError: a parity sequence needs at least one entry"),
            # Over and under drop an index, so a kappa = 1 family is refused before it is built.
            ("reduce", {"b": C_GAMMA_1, "mode": "over"},
             "inputs['b']: ValueError: over reduction needs kappa >= 2, got kappa = 1"),
            ("reduce", {"b": C_GAMMA_1, "mode": "under"},
             "inputs['b']: ValueError: under reduction needs kappa >= 2, got kappa = 1"),
        ],
        ids=["t-int", "t-list", "module-int", "m-float", "epsilon-zero", "appendix-l-zero", "appendix-l-negative",
             "principal-short-lambda", "center-short-monomial", "center-negative-exponent", "center-huge-degree",
             "eta-short", "xi-long", "gl-json-e-list", "b-json-b-list", "classify-kappa-3",
             "b-json-short-block", "b-json-narrow-block", "b-json-short-parities", "b-json-parities-not-dim",
             "b-json-key-out-of-range", "b-json-no-blocks", "classify-b-json-missing-block",
             "b-json-entry-not-a-series", "classify-b-json-entry-not-a-series",
             "gl-json-1x1-block", "gl-json-key-out-of-range",
             "appendix-l-float", "appendix-l-bool", "epsilon-string", "epsilon-float", "char-l-float",
             "principal-l-string", "char-sign-sigma-bool", "char-sign-zeta-float", "daha-json-dim-float",
             "daha-json-l-bool", "lab-s1-float", "corrupt-sign-i-string", "corrupt-sign-j-float",
             "corrupt-sign-i-out-of-range",
             "reduce-star-a-float", "reduce-over-a-string", "center-exponent-float", "ps-entry-bool",
             "eps-entry-string", "from-t-eps-entry-float", "trivial-ps-entry-float",
             "verify-yangian-empty-ps", "verify-twisted-empty-ps", "reduce-empty-ps", "drinfeld-empty-ps",
             "appendix-empty-ps", "reduce-over-kappa-1", "reduce-under-kappa-1"],
    )
    def test_bad_values_exit_2(self, pipeline, inputs, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "pipeline": pipeline, "inputs": inputs}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err

    def test_classify_on_a_vector_that_is_not_highest_fails_the_check(self, tmp_path):
        with open(scenario_path("rank1-L12.json")) as fh:
            scenario = json.load(fh)
        report, code = _run_inputs(tmp_path, "classify", dict(scenario["inputs"], eta=["1", "1"]))
        assert code == 1
        assert report["checks"] == [{
            "id": "highest-weight", "anchor": "upper series annihilate, diagonal series are scalar",
            "status": "fail", "witness": {"detail": "b_12(u) does not annihilate the vector"},
        }]

    def test_classify_with_a_vanishing_tilde_series_fails_the_certificate(self, tmp_path):
        # b_22(u) = 0 on the highest vector makes tilde_2 zero: no ratio to certify.
        b = _payload("b-json", lambda d: d["b"]["2,2"][0][0].update(num=[]))
        report, code = _run_inputs(tmp_path, "classify", {"b": b, "eta": ["1", "0"]})
        assert code == 1
        cert = next(c for c in report["checks"] if c["id"] == "rank1-certificate")
        assert cert["status"] == "fail" and cert["data"]["status"] == "search-failed"


class TestMainEntry:
    def test_list_pipelines(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "verify-yangian" in out and "appendix" in out

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        assert main(["run", str(bad)]) == 2
        assert "maximum recursion depth" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["run", "/nonexistent/scenario.json"]) == 2

    def test_stdout_report(self, capsys):
        code = main(["run", scenario_path("appendix-k2-l2.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "pass"

    def test_repeated_calls_reuse_one_parser_without_carrying_options(self, capsys):
        path = scenario_path("daha-principal-l2.json")
        assert main(["run", path, "--only", "relations"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["run", path]) == 0
        second = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in first["checks"]] == ["relations"]
        assert len(second["checks"]) > 1
        assert _parser() is _parser()

    def test_installed_entrypoint_if_present(self):
        # Exercise the module as a script, mirroring console usage.
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "tyang.cli", "list"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "classify" in proc.stdout


class TestRootSearchBound:
    def test_huge_coefficient_exits_2_quickly(self, tmp_path):
        # a = 10^21 + 1 makes classify_rank1 search the rational roots of a
        # polynomial with a 22-digit trailing coefficient: about 3 * 10^10
        # trial divisions without the bound.
        with open(scenario_path("rank1-L12.json")) as fh:
            scenario = json.load(fh)
        scenario["inputs"]["b"]["t"]["module"]["a"] = str(10**21 + 1)
        del scenario["expectations"]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scenario))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "tyang.cli", "run", str(path)],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 2
        assert "bound 10^12" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_refused_burnside_candidate_is_skipped(self, tmp_path):
        # b_11(u) = 1 + C/u with C's last column (0, -1/1000033, -1/1000003):
        # the cleared characteristic coefficients of a candidate exceed the
        # bound (the lcm of the denominators does, although each numerator
        # and denominator is below it).  The candidate is skipped, and the
        # check ends inconclusive instead of the scenario exiting 2.
        C = [["0", "0", "0"], ["0", "0", "-1/1000033"], ["0", "1", "-1/1000003"]]

        def block(c_of):
            return [[{"num": [c_of(r, c), "1" if r == c else "0"], "den": ["0", "1"]} for c in range(3)]
                    for r in range(3)]

        zero = [[{"num": [], "den": ["1"]}] * 3] * 3
        b = {"1,1": block(lambda r, c: C[r][c]), "1,2": zero, "2,1": zero, "2,2": block(lambda r, c: "0")}
        data = {"ctx": {"s": [1, -1], "eps": [1, -1]}, "dim": 3, "parities": [0, 0, 0], "b": b}
        report, code = _run_inputs(tmp_path, "classify", {"b": {"type": "b-json", "data": data}, "eta": ["1", "0", "0"]})
        assert code == 1
        check = next(c for c in report["checks"] if c["id"] == "irreducibility")
        assert check["data"] == {"verdict": "inconclusive", "closure": 3}


def _run_inputs(tmp_path, pipeline, inputs, max_dim=64):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"name": "case", "pipeline": pipeline, "inputs": inputs}))
    return run_scenario(str(path), max_dim=max_dim)


CHAR_L2 = {"type": "char", "l": 2, "theta1": "1", "theta2": "2"}
# The 6-fold tensor of evaluation L(1, 2) modules: dim 64, so dim * kappa = 128.
L12_TENSOR6 = {"type": "evaluation", "module": LAB12}
for _ in range(5):
    L12_TENSOR6 = {"type": "tensor", "left": L12_TENSOR6, "right": {"type": "evaluation", "module": LAB12}}
B_TENSOR6 = {"type": "from-T", "t": L12_TENSOR6, "eps": [1, -1]}


class TestDimensionCap:
    """The cap is read off the spec before the module or family is built."""

    @pytest.mark.parametrize(
        "pipeline, inputs",
        [
            ("daha", {"m": dict(PRINCIPAL_L2, l=6, **{"lambda": ["1"] * 6})}),
            ("drinfeld", {"m": dict(PRINCIPAL_L2, l=6, **{"lambda": ["1"] * 6}), "ps": [1, -1], "eps": [1, -1]}),
            ("drinfeld", {"m": PRINCIPAL_L2, "ps": [1, 1, -1], "eps": [1, 1, -1]}),
            ("drinfeld", {"m": dict(CHAR_L2, l=10**12), "ps": [1, -1], "eps": [1, -1]}),
            ("verify-yangian", {"t": L12_TENSOR6, "xi": [1] + [0] * 63}),
            ("verify-twisted", {"b": B_TENSOR6}),
            ("classify", {"b": B_TENSOR6, "eta": [1] + [0] * 63}),
            ("reduce", {"b": {"type": "tensor", "t": L12_TENSOR6, "b": {"type": "c-gamma", "ps": [1, -1],
                                                                           "eps": [1, 1], "gamma": "2"}},
                        "mode": "over"}),
        ],
        ids=["daha-principal-l6", "drinfeld-principal-l6", "drinfeld-principal-kappa3", "drinfeld-char-huge-l",
             "verify-yangian-tensor6", "verify-twisted-from-T-tensor6", "classify-from-T-tensor6",
             "reduce-coideal-tensor6"],
    )
    def test_over_cap_spec_exits_2_before_building(self, monkeypatch, tmp_path, capsys, pipeline, inputs):
        from tyang import daha, twisted, yangian

        def refuse(*args):
            raise AssertionError("module built before the cap was checked")

        for module, name in ((daha, "principal_series"), (daha, "char_module"), (yangian, "tensor_action"),
                             (yangian, "evaluation_action"), (twisted, "b_from_T"), (twisted, "b_tensor")):
            monkeypatch.setattr(module, name, refuse)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "pipeline": pipeline, "inputs": inputs}))
        assert main(["run", str(path), "--max-dim", "64"]) == 2
        assert "exceeds the safety cap 64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pipeline, inputs, target",
        [
            ("drinfeld", {"m": dict(CHAR_L2, l=10**12), "ps": [1], "eps": [1]}, "daha.char_module"),
            ("appendix", {"ps": [1], "eps": [1], "l": 10**12}, "drinfeld.appendix_identities"),
            ("daha", {"m": dict(CHAR_L2, l=10**12)}, "daha.char_module"),
        ],
        ids=["drinfeld-char-kappa1", "appendix-kappa1", "daha-char-huge-l"],
    )
    def test_kappa_one_power_is_not_expanded(self, monkeypatch, tmp_path, capsys, pipeline, inputs, target):
        # kappa = 1 (or a one-dimensional module) keeps the carrier dimension
        # at most 1 for any l; l itself is capped, so the builder is never called.
        import importlib

        def refuse(*args):
            raise AssertionError("built although l exceeds the cap")

        module, name = target.split(".")
        monkeypatch.setattr(importlib.import_module(f"tyang.{module}"), name, refuse)
        path = tmp_path / "huge-l.json"
        path.write_text(json.dumps({"name": "huge-l", "pipeline": pipeline, "inputs": inputs}))
        assert main(["run", str(path), "--max-dim", "64"]) == 2
        assert f"l = {10**12} exceeds the safety cap 64" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline, extra", [("daha", {}), ("drinfeld", {"ps": [1, -1], "eps": [1, -1]})])
    @pytest.mark.parametrize("m", [dict(CHAR_L2, l=0), dict(PRINCIPAL_L2, l=0, **{"lambda": []})], ids=["char", "principal"])
    def test_l_below_one_exits_2(self, tmp_path, pipeline, extra, m):
        with pytest.raises(InputError, match="l must be at least 1"):
            _run_inputs(tmp_path, pipeline, dict(extra, m=m))

    def test_l_at_the_cap_is_accepted(self, tmp_path):
        # The cap on l is inclusive: a one-dimensional module at l = max_dim runs.
        assert _run_inputs(tmp_path, "daha", {"m": dict(CHAR_L2, l=8)}, max_dim=8)[1] == 0
        with pytest.raises(InputError, match="l = 9 exceeds the safety cap 8"):
            _run_inputs(tmp_path, "daha", {"m": dict(CHAR_L2, l=9)}, max_dim=8)

    def test_family_shape_read_from_the_spec_matches_the_build(self):
        from tyang.cli import build_baction, build_taction
        from tyang.glmn import make_vector_rep
        from tyang.twisted import b_to_json

        vector = {"type": "evaluation", "module": {"type": "vector", "ps": [1, -1, 1]}, "z": "2"}
        gl_json = {"type": "evaluation", "module": {"type": "gl-json",
                                                     "data": gl_to_json(make_vector_rep(ParitySeq([1, 1, -1])))}}
        lab = {"type": "evaluation", "module": LAB12}
        tensor = {"type": "tensor", "left": lab, "right": {"type": "dual", "of": lab}}
        tspecs = [vector, gl_json, lab, tensor, {"type": "trivial", "ps": [1, -1, -1]},
                  {"type": "dual", "of": {"type": "tensor", "left": vector, "right": vector}}]
        for spec in tspecs:
            shape, build = build_taction(spec)
            T = build()
            assert shape == (T.dim, T.kappa), spec
        cg = {"type": "c-gamma", "ps": [1, -1], "eps": [1, -1], "gamma": "2"}
        coideal = {"type": "tensor", "t": tensor, "b": dict(B_L12, t=lab)}
        bspecs = [B_L12, cg, coideal, {"type": "tensor", "t": lab, "b": cg},
                  {"type": "b-json", "data": b_to_json(build_baction(coideal)[1]())},
                  {"type": "corrupt-sign", "base": coideal, "i": 1, "j": 2}]
        for spec in bspecs:
            shape, build = build_baction(spec)
            B = build()
            assert shape == (B.dim, B.kappa), spec

    def test_cap_is_the_carrier_dimension(self, tmp_path):
        # principal l = 2 has the 8 signed permutations; with V^3 at kappa = 2
        # the carrier is 64-dimensional.
        inputs = {"m": PRINCIPAL_L2, "ps": [1, -1], "eps": [1, -1]}
        with pytest.raises(InputError, match="module dimension 64 exceeds the safety cap 63"):
            _run_inputs(tmp_path, "drinfeld", inputs, max_dim=63)
        assert _run_inputs(tmp_path, "drinfeld", inputs, max_dim=64)[1] == 0


ZERO_QUOTIENT = {"type": "char", "l": 1, "theta1": "1", "theta2": "2", "sign_zeta": -1}


class TestDrinfeldSharing:
    """pipe_drinfeld builds one series product for both of its checks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from tyang import drinfeld

        counted, orig = [], drinfeld.reflection_product

        def counting(*args, **kwargs):
            counted.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(drinfeld, "reflection_product", counting)
        return counted

    @staticmethod
    def _defaults(m, ps, eps):
        from tyang import drinfeld

        M = build_daha_module(m)[1]()
        return [str(x) for x in drinfeld._bc_parameters(M, ParitySeq(ps), eps, 1)]

    @pytest.mark.parametrize("m, ps, eps", [(PRINCIPAL_L2, [1, -1], [1, 1]), (CHAR_L2, [1, 1, -1], [1, -1, 1])])
    def test_one_product_per_scenario(self, calls, tmp_path, m, ps, eps):
        chi, gamma = self._defaults(m, ps, eps)
        base = {"m": m, "ps": ps, "eps": eps}
        reports = []
        for extra in ({}, {"gamma": gamma}, {"chi": chi, "gamma": gamma}):
            calls.clear()
            report, code = _run_inputs(tmp_path, "drinfeld", dict(base, **extra))
            assert code == 0 and len(calls) == 1
            reports.append(report)
        # Explicit defaults give the report of the implicit ones.
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert [c["id"] for c in reports[0]["checks"]] == ["expansion", "reduced-relations", "well-defined"]

    def test_off_default_gamma_rebuilds_for_the_expansion(self, calls, tmp_path):
        # The quotient is zero, so an off-locus gamma still passes well-defined;
        # the expansion check then needs its own default-parameter product.
        base = {"m": ZERO_QUOTIENT, "ps": [1, -1], "eps": [1, 1]}
        implicit, code = _run_inputs(tmp_path, "drinfeld", base)
        assert code == 0 and len(calls) == 1
        calls.clear()
        explicit, code = _run_inputs(tmp_path, "drinfeld", dict(base, gamma="5"))
        assert code == 0 and len(calls) == 2
        assert explicit == implicit

    @pytest.mark.parametrize("extra, ids", [({}, ["expansion", "reduced-relations", "well-defined"]),
                                            ({"expansion": True}, ["expansion", "reduced-relations", "well-defined"]),
                                            ({"expansion": False}, ["reduced-relations", "well-defined"])],
                             ids=["absent", "true", "false"])
    def test_expansion_is_a_json_boolean(self, tmp_path, extra, ids):
        report, code = _run_inputs(tmp_path, "drinfeld", dict({"m": CHAR21, "ps": [1, -1], "eps": [1, -1]}, **extra))
        assert code == 0
        assert [c["id"] for c in report["checks"]] == ids

    @pytest.mark.parametrize(
        "m, eps, extra, witness",
        [
            (PRINCIPAL_L2, [1, 1], {"chi": "-1"}, "(1, 1)"),
            (PRINCIPAL_L2, [1, -1], {"gamma": "7"}, "(1, 1)"),
            (CHAR_L2, [1, -1], {"chi": "2"}, "(1, 2)"),
            (CHAR_L2, [1, -1], {"gamma": "1/3"}, "(1, 2)"),
        ],
        ids=["principal-chi", "principal-gamma", "char-chi", "char-gamma"],
    )
    def test_off_locus_parameters_fail_well_defined(self, tmp_path, m, eps, extra, witness):
        # The witnesses are those of the RFMatrix factor product.
        report, code = _run_inputs(tmp_path, "drinfeld", dict({"m": m, "ps": [1, -1], "eps": eps}, **extra))
        assert code == 1
        assert report["checks"] == [{
            "id": "well-defined", "anchor": "series coefficients preserve the quotient subspace",
            "status": "fail", "witness": {"witness": witness},
        }]


def _subtree_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _subtree_paths(child, path + (key,))


def _cut_signs(node, n):
    """Cut every "ps" and "eps" list under node to its first n entries."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        if key in ("ps", "eps") and isinstance(child, list):
            node[key] = child[:n]
        else:
            _cut_signs(child, n)


def _fuzz_seeds():
    """The shipped scenarios by file name, and the b-json payload of
    twisted-json-L12 run through classify as well (without expectations,
    which name the verify-twisted checks)."""
    seeds = {}
    for name in sorted(os.listdir(SCENARIO_DIR)):
        with open(scenario_path(name)) as fh:
            seeds[name] = json.load(fh)
    b_json = seeds["twisted-json-L12.json"]
    seeds["twisted-json-L12.json:classify"] = {"name": "classify-json-L12", "pipeline": "classify",
                                               "inputs": b_json["inputs"]}
    return seeds


FUZZ_SEEDS = _fuzz_seeds()


def _fuzz_blocks():
    """The constructor blocks of the shipped scenarios by role ("t", "b", "m"
    and "module"), every one found at any depth, in a fixed order."""
    out = {role: [] for role in ("t", "b", "m", "module")}

    def walk(node):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
            if key in out and isinstance(child, dict) and child not in out[key]:
                out[key].append(child)
            walk(child)

    for name in sorted(FUZZ_SEEDS):
        walk(FUZZ_SEEDS[name]["inputs"])
    return out


FUZZ_BLOCKS = _fuzz_blocks()

# Scalars, sign lists (empty and one-entry ones included), and coefficient
# lists like the "num" and "den" of a payload entry.
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.sampled_from([0.5, "", "x", "-1", "3/2", "1/0"])
    | st.sampled_from([[], [1], [-1]])
    | st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2"]), min_size=1, max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["type", "l", "ps", "t"]), inner,
                                                                 max_size=3),
    max_leaves=4,
)


class TestScenarioFuzz:
    """Every mutant of a shipped scenario keeps the exit-code contract.

    A mutation deletes a subtree, replaces it with a small JSON value,
    (one in four where the scenario has a sign list) cuts every "ps" and
    "eps" list to its first 0, 1 or 2 entries, so that the parity and twist
    signs keep one length down to [] and [], or (one in three where the
    scenario has one) swaps a constructor block for a block of the same
    role from any shipped scenario, which brings kappa = 3, gamma != 0,
    dual and tensor families into every pipeline."""

    @settings(max_examples=600, derandomize=True, database=None, deadline=3000)
    @given(name=st.sampled_from(sorted(FUZZ_SEEDS)), data=st.data())
    def test_mutated_scenarios_exit_0_1_or_2(self, name, data):
        scenario = json.loads(json.dumps(FUZZ_SEEDS[name]))
        for _ in range(data.draw(st.integers(1, 2))):
            paths = list(_subtree_paths(scenario))
            if any(p and p[-1] in ("ps", "eps") for p in paths) and data.draw(st.integers(0, 3)) == 0:
                _cut_signs(scenario, data.draw(st.integers(0, 2)))
                continue
            roles = [p for p in paths if p and p[-1] in FUZZ_BLOCKS]
            swap = bool(roles) and data.draw(st.integers(0, 2)) == 0
            at = data.draw(st.sampled_from(roles if swap else paths))
            if not at:
                scenario = data.draw(SMALL_JSON)
                continue
            parent = scenario
            for key in at[:-1]:
                parent = parent[key]
            if swap:
                parent[at[-1]] = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BLOCKS[at[-1]]))))
            elif data.draw(st.booleans()):
                del parent[at[-1]]
            else:
                parent[at[-1]] = data.draw(SMALL_JSON)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.json")
            with open(path, "w") as fh:
                json.dump(scenario, fh)
            assert main(["run", path, "--max-dim", "16"]) in (0, 1, 2)
