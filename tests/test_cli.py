import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from absgate import parse_policy, policy_hash
from absgate.cli import main

POLICY_PATH = str(resources.files("absgate.data").joinpath("reference.policy"))
SUITE_PATH = str(resources.files("absgate.data").joinpath("reference_suite.json"))


class _Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH],
        ["validate", "--policy", "tests/fixtures/defective/unknown_field.policy"],
    ],
    ids=["summary", "diagnostics"],
)
def test_a_terminal_gets_the_bytes_a_pipe_gets(monkeypatch, argv):
    outputs = []
    for stream_type in (_Terminal, io.StringIO):
        out, err = stream_type(), stream_type()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        main(argv)
        outputs.append((out.getvalue(), err.getvalue()))
    assert outputs[0] == outputs[1]
    assert "\x1b" not in "".join(outputs[0])


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


def test_validate_reads_the_policy_text_as_written(capsys, tmp_path):
    # A lone carriage return ends no line: the finding after a tab and a
    # "\r" is on the line and at the column the parser counts.
    assert main(["validate", "--policy", "tests/fixtures/defective/unexpected_character.policy"]) == 2
    assert capsys.readouterr().err == "ERROR unexpected_character 10:49 unexpected character '$'\n"
    # So a comment runs on past a lone "\r", and the rule after it is no rule.
    text = Path(POLICY_PATH).read_text(encoding="utf-8")
    text = text.replace("\nrule r_cap_mild when", "\n# retired:\rrule r_cap_mild when")
    path = tmp_path / "commented.policy"
    path.write_bytes(text.encode())
    assert main(["validate", "--policy", str(path)]) == 0
    policy, _ = parse_policy(text)
    assert "r_cap_mild" not in [rule.rule_id for rule in policy.clinical_rules]
    assert capsys.readouterr().out == f"ok empiric_gate v1 sha256:{policy_hash(policy)}\n"


def test_hash_refuses_a_defective_suite(capsys):
    assert main(["hash", "--suite", "tests/fixtures/defective/unknown_mechanism.json"]) == 2
    assert capsys.readouterr().err == (
        "ERROR unknown_mechanism 0:0 case 'c01': mechanism 'recommend_narrow' is not in the suite vocabulary\n"
    )


def test_hash_refuses_a_field_name_outside_ascii(capsys):
    # str.isidentifier accepts "âge"; the identifier grammar is ASCII only.
    assert main(["hash", "--suite", "tests/fixtures/defective/non_ascii_field.json"]) == 2
    assert capsys.readouterr().err == "ERROR malformed_case 0:0 case 'c03': field name is not an identifier: 'âge'\n"


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


@pytest.mark.parametrize("flag", ["--policy", "--suite"])
def test_a_file_that_is_not_utf8_is_unreadable(capsys, tmp_path, flag):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    args = ["hash", flag, str(path)]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"ERROR unreadable_file 0:0 {path}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize(
    ("command", "text", "expected"),
    [
        ("hash", "[" * 100000, "ERROR malformed_document 0:0 document nests too deeply\n"),
        (
            "evaluate",
            Path(SUITE_PATH).read_text(encoding="utf-8").replace('"description": "', '"description": "\\ud800', 1),
            "ERROR malformed_case 0:0 case 'c01': description is not valid Unicode text\n",
        ),
    ],
    ids=["deep_nesting", "lone_surrogate"],
)
def test_a_too_deep_or_unencodable_suite_is_a_diagnostic_not_a_traceback(capsys, tmp_path, command, text, expected):
    path = tmp_path / "suite.json"
    path.write_text(text, encoding="utf-8")
    args = [command, "--suite", str(path)] + (["--policy", POLICY_PATH] if command == "evaluate" else [])
    assert main(args) == 2
    assert capsys.readouterr().err == expected


def test_too_deep_a_condition_is_a_diagnostic_not_a_traceback(capsys, tmp_path):
    deep = tmp_path / "deep.policy"
    text = Path(POLICY_PATH).read_text(encoding="utf-8")
    deep.write_text(text.replace("when age < 18", "when " + "not " * 1200 + "age < 18"), encoding="utf-8")
    # Line 36, at the 201st "not": the parser stops on the way down.
    expected = "ERROR nesting_too_deep 36:846 condition has more than 200 '(' and 'not' open at once\n"
    assert main(["validate", "--policy", str(deep)]) == 2
    assert capsys.readouterr().err == expected
    assert main(["evaluate", "--policy", str(deep), "--suite", SUITE_PATH]) == 2
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize(
    ("flag", "path", "old", "new", "code"),
    [
        ("--policy", POLICY_PATH, "age < 18", "age < " + "1" * 4301, "syntax_error"),
        ("--suite", SUITE_PATH, '"age": 30', '"age": ' + "1" * 5000, "malformed_document"),
    ],
    ids=["policy_integer", "suite_integer"],
)
def test_an_oversized_numeral_is_a_diagnostic_not_a_traceback(capsys, tmp_path, flag, path, old, new, code):
    changed = tmp_path / "changed"
    changed.write_text(Path(path).read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
    assert main(["hash", flag, str(changed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"ERROR {code} ")


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


def test_decide_on_a_defective_policy_is_a_usage_error(capsys):
    defective = "tests/fixtures/defective/unknown_field.policy"
    assert main(["decide", "--policy", defective, "--suite", SUITE_PATH, "--case-id", "c01"]) == 2
    assert capsys.readouterr().err == "ERROR unknown_field 10:19 condition references undeclared field 'severety'\n"


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
    assert capsys.readouterr().err.endswith("error: argument --runs: must be a positive integer\n")


@pytest.mark.parametrize("runs", ["-2", "x", "1.5", ""])
def test_evaluate_words_every_bad_runs_value_alike(capsys, runs):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--runs", runs])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --runs: must be a positive integer\n") and "_positive_int" not in err


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_evaluate_reports_an_unwritable_report_as_a_diagnostic(tmp_path, capsys, where):
    path = tmp_path / "missing" / "r.json" if where == "missing_directory" else tmp_path
    reason = "[Errno 2] No such file or directory" if where == "missing_directory" else "[Errno 21] Is a directory"
    code = main(["evaluate", "--strict", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--report", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR unwritable_file 0:0 {path}: {reason}: {str(path)!r}\n"


def test_a_closed_stdout_ends_evaluate_with_exit_2_and_no_traceback(tmp_path):
    # The read end closes before the run, as `| head -n 1` closes it early,
    # so the first flush of the summary meets a broken pipe every time.
    report_path = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--report", str(report_path)]
    try:
        result = subprocess.run(
            [sys.executable, "-m", "absgate.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == b""  # no traceback, and no diagnostic
    # The report is written before the summary, and whole.
    assert main([*argv[:-1], str(tmp_path / "again.json")]) == 0
    assert report_path.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_importing_the_cli_loads_no_module_it_does_not_use():
    # -S: no site, so nothing that site imports for its own ends is counted.
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, absgate.cli; print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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
    doc = json.loads(Path(SUITE_PATH).read_text(encoding="utf-8"))
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
    doc = json.loads(Path(SUITE_PATH).read_text(encoding="utf-8"))
    doc["cases"][0]["fields"]["ghost_field"] = True
    path = tmp_path / "unbound.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", "--policy", POLICY_PATH, "--suite", str(path), "--case-id", "c01"]) == 2
    assert "unknown_field" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
