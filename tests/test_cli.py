import hashlib
import json
import os
import subprocess
import sys

import pytest

from tyang.cli import InputError, main, run_scenario

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
    "daha-principal-l2.json": (0, "111845454c1fc3e4bc2a22bd6c730de0ce8874a2fe8b3e5b02bf5b25e353145d"),
    "drinfeld-char-21.json": (0, "f04049bdf541e78ff4208fb385026d481acfcc3c0327cd1900f119709f1dc22a"),
    "rank1-L12.json": (0, "d349d7f5e9c5cf426e5eb22ba9ff51f5739754d7030a1757bb0fc39fc7d25bbd"),
    "reduce-over-L12.json": (0, "25cede47cc2091d13c20e238a0a625a41a33d040f008c0d190feda3c8adf2729"),
    "twisted-L12-cgamma.json": (0, "d6a3936f93331abf40083397752f11875e53bb9abe533568f44c7a633e0ea412"),
    "twisted-negative-control.json": (1, "b52f5e80d29570423bf79cb52ab973234a7442bf81722b16a2f7caa07cfe3f1c"),
    "yangian-L12-tensor.json": (0, "6dc79dee80cd0525038ec11ca578a43a5d83f8aa733851c36bbf3cd4622f3475"),
}


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_report_digest(self, name, tmp_path):
        want_code, want_digest = GOLDEN_REPORTS[name]
        out = tmp_path / "report.json"
        assert main(["run", scenario_path(name), "--out", str(out)]) == want_code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want_digest


LAB12 = {"type": "Lab", "s1": 1, "a": "1", "b": "2"}


B_L12 = {"type": "from-T", "t": {"type": "evaluation", "module": LAB12}, "eps": [1, 1]}
CHAR21 = {"type": "char", "l": 1, "theta1": "1", "theta2": "2"}


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
        ],
        ids=["missing-t", "zero-denominator", "float-z", "eps-value", "appendix-missing-l",
             "classify-missing-eta", "reduce-missing-mode", "drinfeld-missing-ps", "drinfeld-missing-eps",
             "reduce-star-missing-a", "reduce-star-a-out-of-range"],
    )
    def test_constructor_errors_exit_2(self, pipeline, inputs, named, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "pipeline": pipeline, "inputs": inputs}))
        assert main(["run", str(path)]) == 2
        assert named in capsys.readouterr().err


class TestMainEntry:
    def test_list_pipelines(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "verify-yangian" in out and "appendix" in out

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["run", "/nonexistent/scenario.json"]) == 2

    def test_stdout_report(self, capsys):
        code = main(["run", scenario_path("appendix-k2-l2.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "pass"

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
