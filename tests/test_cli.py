import json
from importlib import resources

import pytest

from absgate.cli import main

POLICY_PATH = str(resources.files("absgate.data").joinpath("reference.policy"))
SUITE_PATH = str(resources.files("absgate.data").joinpath("reference_suite.json"))


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("ABSGATE_NO_COLOR", "1")


def test_validate_accepts_the_reference_policy(capsys):
    assert main(["validate", "--policy", POLICY_PATH]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("ok empiric_gate v1 sha256:")
    assert out.err == ""


def test_validate_rejects_a_defective_policy(capsys):
    code = main(["validate", "--policy", "tests/fixtures/defective/unknown_field.policy"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown_field" in err
    assert err.splitlines()[0].startswith("ERROR ")


def test_validate_reports_missing_files(capsys):
    assert main(["validate", "--policy", "no/such/file.policy"]) == 2
    assert "unreadable_file" in capsys.readouterr().err


def test_hash_prints_prefixed_digests(capsys):
    assert main(["hash", "--policy", POLICY_PATH]) == 0
    assert main(["hash", "--suite", SUITE_PATH]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("sha256:") and len(line) == len("sha256:") + 64 for line in lines)


def test_hash_suite_rejects_malformed_and_missing_files(capsys, tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"suite_id": ', encoding="utf-8")
    assert main(["hash", "--suite", str(malformed)]) == 2
    assert capsys.readouterr().err == "ERROR malformed_document 1:14 Expecting value\n"
    missing = str(tmp_path / "missing.json")
    assert main(["hash", "--suite", missing]) == 2
    err = capsys.readouterr().err
    assert err == f"ERROR unreadable_file 0:0 {missing}: [Errno 2] No such file or directory: '{missing}'\n"


def test_too_deep_a_condition_is_a_diagnostic_not_a_traceback(capsys, tmp_path):
    deep = tmp_path / "deep.policy"
    text = open(POLICY_PATH, encoding="utf-8").read()
    deep.write_text(text.replace("when age < 18", "when " + "not " * 1200 + "age < 18"), encoding="utf-8")
    # Line 36, at the 201st "not": the parser stops on the way down.
    expected = "ERROR nesting_too_deep 36:846 condition has more than 200 '(' and 'not' open at once\n"
    assert main(["validate", "--policy", str(deep)]) == 2
    assert capsys.readouterr().err == expected
    assert main(["evaluate", "--policy", str(deep), "--suite", SUITE_PATH]) == 2
    assert capsys.readouterr().err == expected


def test_decide_prints_the_one_line_outcome(capsys):
    assert main(["decide", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--case-id", "c17"]) == 0
    assert capsys.readouterr().out == "recommend narrow_penicillin\n"
    assert main(["decide", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--case-id", "c11"]) == 0
    assert capsys.readouterr().out == "abstain explicit_exclusion [EX_PREGNANCY]\n"


def test_decide_abstention_exits_zero():
    # Abstaining is a successful outcome, not an error.
    assert main(["decide", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--case-id", "c01"]) == 0


def test_decide_trace_is_canonical_json(capsys):
    assert main(["decide", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--case-id", "c17", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "recommend narrow_penicillin"
    trace = json.loads(lines[1])
    assert [record["stage"] for record in trace["stages"]] == [
        "input_assessment",
        "exclusions",
        "clinical_rules",
        "stewardship",
        "output",
    ]


def test_decide_unknown_case_is_a_usage_error(capsys):
    code = main(["decide", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--case-id", "ghost"])
    assert code == 2
    assert "unknown_case" in capsys.readouterr().err


def test_evaluate_summary_lines(capsys):
    assert main(["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH]) == 0
    out = capsys.readouterr().out
    assert "cases 23 concordance_action 1.0000 concordance_full 1.0000" in out
    assert "stewardship pass (15 checks)" in out
    assert "determinism ok runs=3" in out


def test_evaluate_single_run_notes_the_unexercised_check(capsys):
    assert main(["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--runs", "1"]) == 0
    assert "runs=1 (determinism not exercised)" in capsys.readouterr().out


def test_evaluate_rejects_nonpositive_runs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--runs", "0"])
    assert excinfo.value.code == 2


def test_evaluate_writes_a_canonical_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        ["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--runs", "2", "--report", str(report_path)]
    )
    assert code == 0
    raw = report_path.read_bytes()
    assert raw.endswith(b"\n")
    doc = json.loads(raw)
    assert doc["run_count"] == 2
    assert doc["concordance_full"] == "1.0000"
    assert len(doc["results"]) == 23
    capsys.readouterr()


def test_evaluate_strict_passes_on_the_reference(capsys):
    assert main(["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--strict"]) == 0
    capsys.readouterr()


def _flipped_suite(tmp_path):
    doc = json.loads(open(SUITE_PATH).read())
    for case in doc["cases"]:
        if case["id"] == "c17":
            case["expect"] = {"recommend": "macrolide"}
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_evaluate_strict_fails_on_a_behavioral_mismatch(tmp_path, capsys):
    flipped = _flipped_suite(tmp_path)
    assert main(["evaluate", "--policy", POLICY_PATH, "--suite", flipped]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--policy", POLICY_PATH, "--suite", flipped, "--strict"]) == 1
    out = capsys.readouterr().out
    assert 'mismatch c17 level=action expected {"recommend":"macrolide"} actual [recommend narrow_penicillin]' in out


def test_parse_errors_beat_behavioral_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["evaluate", "--policy", POLICY_PATH, "--suite", str(bad), "--strict"]) == 2
    assert "malformed_document" in capsys.readouterr().err


def test_bind_errors_are_usage_errors(tmp_path, capsys):
    doc = json.loads(open(SUITE_PATH).read())
    doc["cases"][0]["fields"]["ghost_field"] = True
    path = tmp_path / "unbound.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", "--policy", POLICY_PATH, "--suite", str(path), "--case-id", "c01"]) == 2
    assert "unknown_field" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
