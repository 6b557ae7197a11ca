"""The same bytes whatever the state of the interpreter.

Two subprocesses run this module as a script over fixed inputs: one with
``PYTHONHASHSEED=0`` and the interpreter's defaults, the other with
``PYTHONHASHSEED=12345``, no limit on int-string digits
(``PYTHONINTMAXSTRDIGITS=0``), a ``decimal`` context of precision 4 with
every trap set, and a recursion limit of 400. Each prints the rendered
diagnostics and digest of every policy, the parse and bind diagnostics of
every suite, and the canonical bytes of each ``run_suite`` report; the two
outputs must agree byte for byte.
"""

import decimal
import os
import subprocess
import sys
from pathlib import Path

import absgate
from absgate import bind_suite, format_policy, parse_policy, parse_suite, policy_hash, run_suite
from absgate.canon import canonical_bytes
from absgate.reference import reference_policy_text, reference_suite_text
from absgate.suite import Suite

from oracle import kind_cases, make_kind_policy


def _veto_in_parentheses(policy_text, depth):
    at = policy_text.index(" when ", policy_text.index("veto ")) + len(" when ")
    end = policy_text.index("\n", at)
    return policy_text[:at] + "(" * depth + policy_text[at:end] + ")" * depth + policy_text[end:]


def _outputs():
    lines = []

    def policy(name, text):
        parsed, diags = parse_policy(text)
        lines.append(f"policy {name} {parsed and policy_hash(parsed)}")
        lines.extend(diag.render() for diag in diags)
        return parsed

    def report(name, policy, suite, diags):
        if suite is not None:
            diags = diags + bind_suite(suite, policy)
        lines.append(f"suite {name}")
        lines.extend(diag.render() for diag in diags)
        if suite is not None:
            lines.append(canonical_bytes(run_suite(policy, suite, runs=1).to_canonical()).decode("utf-8"))

    reference = policy("reference", reference_policy_text())
    policy("veto_in_190_parentheses", _veto_in_parentheses(reference_policy_text(), 190))
    suite_text = reference_suite_text()
    for name, age in (("reference", "30"), ("age_of_5000_digits", "1" * 5000), ("age_of_25_digits", "1" * 25)):
        report(name, reference, *parse_suite(suite_text.replace('"age": 30', '"age": ' + age, 1)))
    notes = '{"notes": ' + "[" * 500 + "]" * 500 + ", "
    report("notes_500_deep", reference, *parse_suite(suite_text.replace("{", notes, 1)))
    for seed in range(3):
        kinds = policy(f"kinds_{seed}", format_policy(make_kind_policy(seed)))
        report(f"kinds_{seed}", kinds, Suite("kinds", "v1", ("generated",), tuple(kind_cases(seed, 40))), [])
    return "\n".join(lines) + "\n"


def _run(env, *args):
    src = str(Path(absgate.__file__).resolve().parents[1])
    inherited = {k: v for k, v in os.environ.items() if k not in ("PYTHONHASHSEED", "PYTHONINTMAXSTRDIGITS")}
    inherited["PYTHONPATH"] = os.pathsep.join(filter(None, [src, inherited.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, __file__, *args], env={**inherited, **env}, capture_output=True, check=False, timeout=300
    )


def test_outputs_do_not_depend_on_the_interpreter_state():
    plain = _run({"PYTHONHASHSEED": "0"})
    perturbed = _run({"PYTHONHASHSEED": "12345", "PYTHONINTMAXSTRDIGITS": "0"}, "perturbed")
    assert plain.returncode == 0, plain.stderr.decode()
    assert perturbed.returncode == 0, perturbed.stderr.decode()
    assert perturbed.stdout == plain.stdout
    lines = plain.stdout.decode("utf-8").splitlines()
    # The parenthesized veto is the reference policy; a suite integer of more
    # than 19 digits is a malformed document.
    assert lines[0] == lines[1].replace("veto_in_190_parentheses", "reference")
    for name in ("age_of_5000_digits", "age_of_25_digits"):
        at = lines.index(f"suite {name}")
        assert lines[at + 1] == "ERROR malformed_document 0:0 document holds an integer with too many digits"
    # A document deeper than MAX_DEPTH is refused whatever the recursion limit.
    at = lines.index("suite notes_500_deep")
    assert lines[at + 1] == "ERROR malformed_document 0:0 document nests too deeply"
    assert lines[at + 2].startswith("policy kinds_0 ")


if __name__ == "__main__":
    if sys.argv[1:] == ["perturbed"]:
        sys.setrecursionlimit(400)
        with decimal.localcontext() as context:
            context.prec = 4
            context.traps.update(dict.fromkeys(context.traps, True))
            output = _outputs()
    else:
        output = _outputs()
    sys.stdout.write(output)
