import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

from absgate import format_policy, parse_policy, policy_hash
from absgate.condition import print_condition
from absgate.dsl import MAX_NESTING, _lex
from absgate.reference import reference_policy_text

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """\
policy p version v1
field a : bool
class c1 rank 1
rule r1 when a == true candidate c1
stewardship {
  escalation_justified_when false
}
"""


def test_minimal_policy_parses_clean():
    policy, diags = parse_policy(MINIMAL)
    assert diags == []
    assert policy is not None
    assert policy.policy_id == "p"
    assert policy.version == "v1"
    assert [c.class_id for c in policy.classes] == ["c1"]


def test_reference_policy_parses_clean():
    policy, diags = parse_policy(reference_policy_text())
    assert diags == []
    assert policy is not None
    assert len(policy.schema) == 13
    assert len(policy.classes) == 5
    assert len(policy.clinical_rules) == 10
    assert policy.required == ("age", "pregnant", "syndrome")


@pytest.mark.parametrize(
    ("mutation", "code"),
    [
        (lambda t: t + "policy q version v2\n", "duplicate_header"),
        (lambda t: t.replace("field a : bool\n", "field a : bool\nfield a : int\n"), "duplicate_field"),
        (lambda t: t.replace("class c1 rank 1\n", "class c1 rank 1\nclass c1 rank 2\n"), "duplicate_class"),
        (
            lambda t: t.replace(
                "rule r1 when a == true candidate c1\n",
                "rule r1 when a == true candidate c1\nrule r1 when a == false candidate c1\n",
            ),
            "duplicate_rule_id",
        ),
        (lambda t: t.replace("rank 1", "rank 0"), "invalid_rank"),
        (lambda t: t.replace("field a : bool", "field a : bool $"), "unexpected_character"),
        (lambda t: t.replace("stewardship {\n  escalation_justified_when false\n}\n", ""), "missing_section"),
        (lambda t: t.replace("class c1 rank 1\n", "class c1 rank 1\nrequire ghost\n"), "unknown_field"),
        (lambda t: t.replace("candidate c1", "candidate ghost"), "unknown_class"),
        (lambda t: t.replace("candidate c1", "candidate c1 incompatible ghost"), "unknown_rule"),
        (lambda t: t.replace("candidate c1", "candidate c1 incompatible r1"), "self_incompatibility"),
        (lambda t: t.replace("field a : bool", "field a : wibble"), "syntax_error"),
        (lambda t: t.replace("field a : bool", "field a : token { x, x }"), "duplicate_enum_token"),
        (
            lambda t: t.replace(
                "rule r1",
                "exclude e1 label L when a == true\nexclude e2 label L when a == false\nrule r1",
            ),
            "duplicate_label",
        ),
        (lambda t: t.replace("when a == true", "when a < 3"), "type_mismatch"),
        (lambda t: t.replace("when a == true", "when ghost == true"), "unknown_field"),
    ],
)
def test_defect_produces_expected_diagnostic(mutation, code):
    policy, diags = parse_policy(mutation(MINIMAL))
    assert policy is None
    assert code in {d.code for d in diags}
    assert all(d.severity.value == "error" for d in diags if d.code == code)


@pytest.mark.parametrize(
    ("mutation", "rendered"),
    [
        (
            lambda t: t.replace("field a : bool", "field a : bool\nfield s : token { }"),
            "ERROR syntax_error 4:1 enumeration must list at least one token",
        ),
        (
            lambda t: t.replace("class c1 rank 1\n", "class c1 rank 1\nrequire\n"),
            "ERROR syntax_error 5:1 expected at least one required field name",
        ),
        (
            lambda t: t.replace("version v1", "version V1"),
            "ERROR syntax_error 1:18 version must match [a-z][a-z0-9_]*: 'V1'",
        ),
        (
            lambda t: t.replace("field a : bool", "field a : bool\nfield s : token { male }").replace(
                "when a == true", "when s == Male"
            ),
            "ERROR syntax_error 5:19 token literal must match [a-z][a-z0-9_]*: 'Male'",
        ),
        (
            lambda t: t.replace("rule r1", "exclude e1 label L when a == true\nexclude e1 label M when a == false\nrule r1"),
            "ERROR duplicate_rule_id 5:9 rule id 'e1' declared twice",
        ),
        (
            lambda t: t.replace(
                "rule r1",
                "".join(f"exclude e{n} label L{n} when a == true\n" for n in range(50))
                + "exclude e50 label L0 when a == false\nrule r1",
            ),
            "ERROR duplicate_label 54:19 exclusion label 'L0' declared twice",
        ),
    ],
    ids=[
        "empty_enumeration",
        "empty_require",
        "version_not_token",
        "token_literal_not_token",
        "repeated_exclusion",
        "label_repeated_after_many",
    ],
)
def test_a_refusal_is_reported_first_at_its_position(mutation, rendered):
    policy, diags = parse_policy(mutation(MINIMAL))
    assert policy is None
    assert diags[0].render() == rendered


def test_recovery_reports_independent_errors():
    text = MINIMAL.replace("field a : bool", "field a : wibble\nfield b : alsobad")
    policy, diags = parse_policy(text)
    assert policy is None
    assert sum(1 for d in diags if d.code == "syntax_error") == 2


def test_diagnostics_carry_positions():
    policy, diags = parse_policy(MINIMAL.replace("field a : bool", "field a : bool $"))
    assert policy is None
    ours = [d for d in diags if d.code == "unexpected_character"]
    assert ours and ours[0].line == 2


def _alternating(levels):
    # Right-nested, as format_policy prints it: (not ...), (... and a), (a or ...).
    text = "a == true"
    for level in range(levels):
        text = ("(not {})", "({} and a == true)", "(a == false or {})")[level % 3].format(text)
    return text


# Each builds a condition tree `levels` high: every "not", "and" and "or" on
# the path down is one level, and a parenthesis is none.
_NESTINGS = {
    "not": lambda levels: "not " * levels + "a == true",
    "parenthesized_not": lambda levels: "(not " * levels + "a == true" + ")" * levels,
    "and_chain": lambda levels: " and ".join(["a == true"] * (levels + 1)),
    "parenthesized_and": lambda levels: "(" * levels + "a == true" + " and a == true)" * levels,
    "alternating": _alternating,
}


def _parse_condition(text):
    return parse_policy(MINIMAL.replace("when a == true", "when " + text))


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_is_limited_with_a_diagnostic(shape):
    policy, diags = _parse_condition(_NESTINGS[shape](MAX_NESTING))
    assert diags == []
    # Printing wraps every level in parentheses; the text still re-parses.
    text = format_policy(policy)
    reparsed, diags = parse_policy(text)
    assert diags == []
    assert policy_hash(reparsed) == policy_hash(policy)
    assert format_policy(reparsed) == text
    for levels in (MAX_NESTING + 1, 1200):
        policy, diags = _parse_condition(_NESTINGS[shape](levels))
        assert policy is None
        assert [d.code for d in diags] == ["nesting_too_deep"]


def test_only_the_open_parentheses_and_nots_count():
    # 256 negations and 255 pairs of parentheses in a balanced tree nine
    # levels high: at most eight "(" and one "not" are open at once.
    text = "not a == true"
    for _ in range(8):
        text = f"({text} and {text})"
    assert text.count("not") + text.count("(") > 2 * MAX_NESTING
    policy, diags = _parse_condition(text)
    assert diags == []
    assert print_condition(policy.clinical_rules[0].when) == text.replace("not a == true", "(not a == true)")


def test_the_nesting_diagnostics_name_their_limit():
    _, diags = _parse_condition(_NESTINGS["and_chain"](MAX_NESTING + 1))
    assert [(d.code, d.message, d.line, d.col) for d in diags] == [
        # At the "and" that makes the tree one level too high.
        ("nesting_too_deep", f"condition nests deeper than {MAX_NESTING} levels", 4, 24 + 14 * MAX_NESTING)
    ]
    # Redundant parentheses add no level, only open ones.
    opens = 2 * MAX_NESTING
    policy, diags = _parse_condition("(" * opens + "a == true" + ")" * opens)
    assert diags == []
    assert policy.clinical_rules == parse_policy(MINIMAL)[0].clinical_rules
    _, diags = _parse_condition("(" * (opens + 1) + "a == true" + ")" * (opens + 1))
    assert [(d.code, d.message, d.col) for d in diags] == [
        ("nesting_too_deep", f"condition has more than {opens} '(' and 'not' open at once", 14 + opens)
    ]


# Declares every field type keyword; the reference policy has no closed tokenset.
EVERY_FIELD_TYPE = """\
policy every_kind version v2
field b : bool
field i : int
field d : decimal
field t : token { lo, hi }
field s : tokenset { x, y, z }
field r : tokenset risk
class c1 rank 1
class c2 rank 2 escalation
require b, i
known_risks { fever, rash }
consistency k1 forbid i < 0 and d > 1.5
exclude e1 label L1 when t == hi and s has x
rule r1 requires d when b == true or r has fever candidate c1 incompatible r2
rule r2 when not (i >= 3) and present(s) candidate c2
stewardship {
  escalation_justified_when absent(r)
  veto v1 class c2 when d <= 0.25
}
"""


def test_format_round_trips_to_the_same_hash():
    for source in (reference_policy_text(), EVERY_FIELD_TYPE):
        original, diags = parse_policy(source)
        assert original is not None and diags == []
        text = format_policy(original)
        reparsed, rediags = parse_policy(text)
        assert rediags == []
        assert reparsed is not None
        assert policy_hash(reparsed) == policy_hash(original)


# One policy with every statement-time duplicate and every resolve-phase
# check; rule r1 also names an exclusion id, which is not a clinical rule.
MULTI_DEFECT = """\
policy p version v1
policy q version v2
field a : bool
field a : int
field t : token { x, y, x }
field risks : tokenset risk
class c1 rank 1
class c1 rank 2
require a, ghost
known_risks { fever fever }
consistency k1 forbid a < 3
exclude e1 label L when a > 1
exclude e2 label L when a == false
rule r1 requires ghost2 when a == 1 candidate nowhere incompatible r1, r9, e1
rule r1 when a == true candidate c1
stewardship {
  escalation_justified_when a >= 2
  veto v1 class c9 when a != 0
}
stewardship {
  escalation_justified_when false
}
"""


def test_diagnostics_keep_their_order_codes_and_positions():
    policy, diags = parse_policy(MULTI_DEFECT)
    assert policy is None
    assert [d.render() for d in diags] == [
        "ERROR duplicate_header 2:1 policy header declared twice",
        "ERROR duplicate_field 4:7 field 'a' declared twice",
        "ERROR duplicate_enum_token 5:25 enumeration token 'x' repeated",
        "ERROR duplicate_class 8:7 class 'c1' declared twice",
        "ERROR duplicate_name 10:21 risk token 'fever' repeated",
        "ERROR duplicate_label 13:18 exclusion label 'L' declared twice",
        "ERROR duplicate_rule_id 15:6 rule id 'r1' declared twice",
        "ERROR duplicate_stewardship 20:1 stewardship block declared twice",
        "ERROR unknown_field 9:12 required field 'ghost' is not declared",
        "ERROR type_mismatch 14:30 integer literal compared against boolean field 'a'",
        "ERROR unknown_field 14:18 rule 'r1' requires undeclared field 'ghost2'",
        "ERROR unknown_class 14:47 rule 'r1' nominates undeclared class 'nowhere'",
        "ERROR self_incompatibility 14:68 rule 'r1' declared incompatible with itself",
        "ERROR unknown_rule 14:72 rule 'r1' incompatible with unknown rule 'r9'",
        "ERROR unknown_rule 14:76 rule 'r1' incompatible with unknown rule 'e1'",
        "ERROR type_mismatch 11:23 ordering comparison on boolean field 'a'",
        "ERROR type_mismatch 12:25 ordering comparison on boolean field 'a'",
        "ERROR type_mismatch 17:29 ordering comparison on boolean field 'a'",
        "ERROR type_mismatch 18:25 integer literal compared against boolean field 'a'",
        "ERROR unknown_class 18:17 veto 'v1' targets undeclared class 'c9'",
    ]


def test_comments_and_whitespace_do_not_change_the_hash():
    base, _ = parse_policy(MINIMAL)
    noisy = "# leading comment\n\n" + MINIMAL.replace(
        "field a : bool", "field   a   :   bool  # trailing comment"
    ).replace("class c1 rank 1", "\n\nclass c1 rank 1")
    other, diags = parse_policy(noisy)
    assert diags == []
    assert other is not None and base is not None
    assert policy_hash(other) == policy_hash(base)


def test_declaration_order_does_not_change_the_hash():
    doubled = MINIMAL.replace(
        "field a : bool\n", "field a : bool\nfield b : int\n"
    ).replace(
        "rule r1 when a == true candidate c1\n",
        "rule r1 when a == true candidate c1\nrule r2 when b >= 3 candidate c1\n",
    )
    swapped = doubled.replace(
        "field a : bool\nfield b : int\n", "field b : int\nfield a : bool\n"
    ).replace(
        "rule r1 when a == true candidate c1\nrule r2 when b >= 3 candidate c1\n",
        "rule r2 when b >= 3 candidate c1\nrule r1 when a == true candidate c1\n",
    )
    first, d1 = parse_policy(doubled)
    second, d2 = parse_policy(swapped)
    assert d1 == [] and d2 == []
    assert first is not None and second is not None
    assert policy_hash(first) == policy_hash(second)


def test_semantic_change_changes_the_hash():
    base, _ = parse_policy(MINIMAL)
    bumped, diags = parse_policy(MINIMAL.replace("rank 1", "rank 2"))
    assert diags == []
    assert base is not None and bumped is not None
    assert policy_hash(bumped) != policy_hash(base)


def test_requires_and_incompatible_clauses_parse():
    text = MINIMAL.replace(
        "rule r1 when a == true candidate c1\n",
        "rule r1 requires a when a == true candidate c1 incompatible r2\n"
        "rule r2 when a == false candidate c1 incompatible r1\n",
    )
    policy, diags = parse_policy(text)
    assert diags == []
    assert policy is not None
    first = policy.clinical_rules[0]
    assert first.requires == ("a",)
    assert first.incompatible_with == ("r2",)


# A name repeated in a list, as the repeated enumeration token is: refused
# at the repeated token, never merged in silence.
_REFERENCE = reference_policy_text()


@pytest.mark.parametrize(
    ("edit", "rendered"),
    [
        (
            ("require age, syndrome, pregnant", "require age, syndrome, pregnant, age"),
            "ERROR duplicate_name 26:34 required field 'age' repeated",
        ),
        (
            ("require age, syndrome, pregnant", "require age, syndrome, pregnant\nrequire pregnant"),
            "ERROR duplicate_name 27:9 required field 'pregnant' repeated",
        ),
        (
            ("known_risks { immunosuppressed", "known_risks { immunosuppressed immunosuppressed"),
            "ERROR duplicate_name 28:32 risk token 'immunosuppressed' repeated",
        ),
        (
            ("requires renal_impairment when", "requires renal_impairment, renal_impairment when"),
            "ERROR duplicate_name 43:44 required field 'renal_impairment' repeated",
        ),
        (
            ("incompatible r_cellulitis_macrolide", "incompatible r_cellulitis_macrolide, r_cellulitis_macrolide"),
            "ERROR duplicate_name 47:139 incompatible rule 'r_cellulitis_macrolide' repeated",
        ),
    ],
    ids=["require", "require_twice", "known_risks", "rule_requires", "rule_incompatible"],
)
def test_a_repeated_list_name_is_refused_at_the_repeat(edit, rendered):
    assert _REFERENCE.count(edit[0]) == 1
    policy, diags = parse_policy(_REFERENCE.replace(*edit))
    assert policy is None
    assert [d.render() for d in diags] == [rendered]


def _bench_generate():
    """The benchmark's workload generators, imported from the checkout by path."""
    name = "absgate_bench_generate"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "generate.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_the_packaged_and_generated_policies_repeat_no_name():
    generate = _bench_generate()
    texts = [reference_policy_text()] + [
        generate.build(name, seed, smoke).policy_text
        for name in ("rule_heavy", "intake_screen")
        for seed in (5, 7, 11)
        for smoke in (False, True)
    ]
    for text in texts:
        assert "require " in text and "known_risks {" in text
        policy, diags = parse_policy(text)
        assert policy is not None and diags == []


# --- lexer ----------------------------------------------------------------
# The loop lexer the single-scan ``dsl._lex`` replaced, kept as its
# reference: one regex match per lexeme, whitespace runs included.
_LOOP_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[\s]+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<DECIMAL>-?[0-9]+\.[0-9]+)
  | (?P<INT>-?[0-9]+)
  | (?P<OP>==|!=|<=|>=|<|>)
  | (?P<PUNCT>[{}(),:])
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _loop_lex(text):
    tokens, diags = [], []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        match = _LOOP_TOKEN_RE.match(text, pos)
        if match is None:
            diags.append(f"unexpected character {text[pos]!r} {line}:{pos - line_start + 1}")
            pos += 1
            continue
        kind, lexeme = match.lastgroup, match.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append((kind, lexeme, line, match.start() - line_start + 1))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + lexeme.rfind("\n") + 1
        pos = match.end()
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
    return tokens, diags


def _scan_lex(text):
    diags = []
    tokens = [tuple(tok) for tok in _lex(text, diags)]
    assert all(d.code == "unexpected_character" for d in diags)
    return tokens, [f"{d.message} {d.line}:{d.col}" for d in diags]


def _large_policy_text(seed=5, rules=300):
    """A policy the size of the benchmark's rule_heavy one (about 35 KiB):
    every field kind, conditions 3-4 deep, comments and negative numbers."""
    rng = random.Random(seed)
    leaves = (
        lambda: f"i {rng.choice(['<', '<=', '>', '>=', '==', '!='])} {rng.randint(-99, 99)}",
        lambda: f"d {rng.choice(['<', '>='])} {rng.randint(-9, 99)}.{rng.randint(0, 9999)}",
        lambda: f"t == {rng.choice(['lo', 'hi'])}",
        lambda: f"s has {rng.choice('xyz')}",
        lambda: f"r has {rng.choice(['fever', 'rash'])}",
        lambda: f"b != {rng.choice(['true', 'false'])}",
        lambda: f"{rng.choice(['present', 'absent'])}({rng.choice('bidtsr')})",
    )

    def tree(depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(leaves)()
        if rng.random() < 0.15:
            return f"not ({tree(depth - 1)})"
        return f"({tree(depth - 1)} {rng.choice(['and', 'or'])} {tree(depth - 1)})"

    lines = EVERY_FIELD_TYPE.split("stewardship {")[0].splitlines()
    for index in range(rules):
        if index % 25 == 0:
            lines.append(f"# rules {index} and on")
        lines.append(f"rule g{index} when {tree(rng.choice([3, 4]))} candidate c{rng.randint(1, 2)}")
    lines.append("stewardship {\n  escalation_justified_when " + tree(3) + "\n}")
    return "\n".join(lines) + "\n"


# Characters a mutation inserts: whitespace that ends no line (\x1c and the
# no-break space among it), the byte-order mark, which is no whitespace,
# characters no token starts with, and characters that split or join tokens.
_MUTATION_CHARS = "\t\r\x0b\x0c\x1c\xa0\ufeff$@.-=!#\n 7_"


def _mutations(text, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 6)):
            at = rng.randrange(len(chars) + 1)
            roll = rng.random()
            if roll < 0.6:
                chars[at:at] = rng.choice(_MUTATION_CHARS) * rng.choice([1, 1, 1, 2, 5])
            elif roll < 0.8:
                del chars[at : at + rng.randint(1, 8)]
            else:
                chars[at:at] = chars[at : at + rng.randint(1, 8)]
        yield "".join(chars)


def _lexer_corpus():
    reference = reference_policy_text()
    large = _large_policy_text()
    yield reference
    yield large
    yield from _mutations(reference, 400, seed=11)
    # Slices of the large text keep the corpus quick and start mid-token.
    yield from (mutated[: 4000] for mutated in _mutations(large[5000:], 60, seed=12))
    yield reference.rstrip("\n") + "\n# a comment at the end with no newline"
    yield "$" + reference + "$"
    yield "\ufeff" + reference
    yield ""
    yield "$"
    yield "#"
    yield "\r\n".join(MINIMAL.splitlines())
    # What a scan of (gap, lexeme) pairs must get right: trailing whitespace
    # with no final newline, an unexpected character with no gap, a lone
    # "-", "=" or "!", numerals cut at a ".", line separators and the no-break
    # space in a gap, a letter outside ASCII in an identifier, and a comment
    # at the end of the text.
    yield from ("a b  \t", MINIMAL + " \x0c ", "a$b", "$$", "-", "=", "!", "a - b = c ! d == e != f")
    yield from ("-x", "x-", "--1", "1.", ".5", "1.2.3", "-1.5-2", "a <=> b", "a\u2028b\x1cc\xa0d\u2029\ne")
    yield from ("ab\xe9cd", "\xe9", "x#", "a #c\n#", MINIMAL.replace("a == true", "a ==\u2028true # e\u0301"))


def test_the_single_scan_lexer_matches_the_loop_lexer():
    large = _large_policy_text()
    assert 30_000 < len(large.encode()) < 45_000
    policy, diags = parse_policy(large)
    assert policy is not None and diags == []
    for text in _lexer_corpus():
        assert _scan_lex(text) == _loop_lex(text), repr(text[:80])


def test_the_lexer_gap_test_is_the_regex_whitespace_class():
    # A gap between tokens is whitespace exactly when the loop lexer's \s
    # would have read it as whitespace, for every code point.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


def test_lexer_diagnostics_and_positions():
    # The comment hides the last '$'.
    _, diags = parse_policy("$policy p version v1\n\tfield a : bool @\r\n# end $")
    assert [d.render() for d in diags if d.code == "unexpected_character"] == [
        "ERROR unexpected_character 1:1 unexpected character '$'",
        "ERROR unexpected_character 2:17 unexpected character '@'",
    ]
    # Carriage return and form feed end no line.
    tokens = _lex("a\rb\n\x0cc", [])
    assert [(t.text, t.line, t.col) for t in tokens] == [("a", 1, 1), ("b", 1, 3), ("c", 2, 2), ("", 2, 3)]


def _rule_literal(literal):
    return parse_policy(MINIMAL.replace("field a : bool", "field a : int").replace("a == true", "a < " + literal))


def _rank(literal):
    return parse_policy(MINIMAL.replace("rank 1", "rank " + literal))


def test_oversized_numerals_are_diagnostics():
    reference = reference_policy_text()
    for text, expected in (
        (reference.replace("age < 18", "age < " + "1" * 4301), "syntax_error 36:52 integer literal out of 64-bit range"),
        (reference.replace("weight_kg < 40.0", "weight_kg < " + "1" * 28 + ".5"), "syntax_error 54:64 decimal out of range"),
        (
            reference.replace("narrow_penicillin rank 1", "narrow_penicillin rank " + "1" * 5000),
            "invalid_rank 20:30 rank out of 64-bit range",
        ),
    ):
        policy, diags = parse_policy(text)
        assert policy is None
        assert diags[0].render().startswith("ERROR " + expected + ": ")


def test_integer_literals_and_ranks_are_bounded_by_their_digits():
    limit = sys.get_int_max_str_digits()
    # The answers must not depend on the interpreter's int-string digit limit.
    sys.set_int_max_str_digits(640)
    try:
        for literal in ("9223372036854775807", "-9223372036854775808", "0" * 5000 + "7", "-" + "0" * 5000):
            assert _rule_literal(literal)[1] == [], literal
        for literal in ("9223372036854775808", "-9223372036854775809", "1" * 700, "-" + "0" * 5000 + "1" * 20):
            assert [d.render() for d in _rule_literal(literal)[1]] == [
                f"ERROR syntax_error 4:18 integer literal out of 64-bit range: {literal}"
            ]
        assert _rank("0" * 5000 + "9223372036854775807")[1] == []
        for literal, message in (
            ("9223372036854775808", "rank out of 64-bit range: 9223372036854775808"),
            ("1" * 700, "rank out of 64-bit range: " + "1" * 700),
            # Not positive comes first, spelled as int() spells the number.
            ("-0" + "1" * 700, "rank must be positive: -" + "1" * 700),
            ("-00", "rank must be positive: 0"),
            ("-007", "rank must be positive: -7"),
        ):
            policy, diags = _rank(literal)
            assert policy is None
            assert diags[0].render() == f"ERROR invalid_rank 3:15 {message}"
    finally:
        sys.set_int_max_str_digits(limit)
