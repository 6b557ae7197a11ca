"""Properties of the two parsers over mutated reference texts.

Every text, however damaged, parses to a result or to diagnostics and never
raises; a policy that parses prints back to text that parses to the same
digest; and the explicit-stack condition parser reads every text as the
recursive-descent one it replaced does. The mutations insert characters,
words and runs of them (long numerals among them), delete and duplicate
spans, put runs of "not" before a condition and wrap one in parentheses;
hypothesis draws them under the derandomized profile of ``conftest.py``.
Statement order reaches nothing: a policy text with its statements and
lists shuffled parses to an equal policy that prints, hashes and decides
alike.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from absgate import (
    Suite,
    bind_suite,
    decide,
    format_policy,
    has_errors,
    load_reference_suite,
    parse_policy,
    parse_suite,
    policy_hash,
)
from absgate.canon import canonical_bytes
from absgate.model import canonical_serialize
from absgate.condition import And, Not, Or
from absgate.dsl import _MAX_OPEN, MAX_NESTING, _lex, _Parser, _ParseError
from absgate.reference import reference_policy_text, reference_suite_text

from oracle import kind_cases, make_kind_policy

POLICY = reference_policy_text()
SUITE = reference_suite_text()

_CHARS = "\t\r\x0b\x0c\x1c\xa0\ufeff\n $@.-=!#()[]{},:<>\"'\\_0123456789aez"
_AT = st.integers(min_value=0, max_value=1 << 20)  # taken modulo the text's length
_EDIT = st.one_of(
    st.tuples(st.just("insert"), _AT, st.sampled_from(_CHARS), st.integers(1, 3)),
    st.tuples(st.just("insert"), _AT, st.sampled_from("019"), st.integers(1, 5000)),
    st.tuples(st.just("delete"), _AT, st.just(""), st.integers(1, 40)),
    st.tuples(st.just("duplicate"), _AT, st.just(""), st.integers(1, 40)),
    # Deepens the condition after the next "when " by `size` levels.
    st.tuples(st.just("nest"), _AT, st.just("not "), st.integers(90, 210)),
)
_EDITS = st.lists(_EDIT, min_size=1, max_size=5)
# Edits aimed at conditions: connectives, parentheses, and the condition
# after the next "when " wrapped in `size` parentheses or negations.
_CONDITION_EDITS = st.lists(
    st.one_of(
        _EDIT,
        st.tuples(st.just("insert"), _AT, st.sampled_from(["(", ")", "not ", " and ", " or "]), st.integers(1, 3)),
        st.tuples(st.just("wrap"), _AT, st.sampled_from(["(", "(not "]), st.integers(1, 210)),
    ),
    min_size=1,
    max_size=5,
)


def _mutate(text, edits):
    for op, at, chars, size in edits:
        at %= len(text) + 1
        if op == "insert":
            text = text[:at] + chars * size + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + size :]
        elif op == "duplicate":
            text = text[:at] + text[at : at + size] * 2 + text[at + size :]
        elif op in ("nest", "wrap") and "when " in text[at:]:
            at = text.index("when ", at) + len("when ")
            end = text.find("\n", at) if op == "wrap" else at
            if end != -1:
                text = text[:at] + chars * size + text[at:end] + ")" * (size if op == "wrap" else 0) + text[end:]
    return text


def _insert(text, after, chars, size):
    return ("insert", text.index(after) + len(after), chars, size)


# Numerals too long for the interpreter's int-string digit limit or for the
# decimal context's precision: an integer literal, a class rank and a
# decimal literal, then a decimal string and an integer in a suite.
@given(_EDITS)
@example([])
@example([("nest", 0, "not ", MAX_NESTING + 1)])
@example([_insert(POLICY, "age < ", "1", 4301)])
@example([_insert(POLICY, "narrow_penicillin rank ", "1", 5000)])
@example([_insert(POLICY, "weight_kg < ", "1", 28)])
def test_mutated_policies_parse_without_raising_and_print_back_to_the_same_hash(edits):
    policy, diags = parse_policy(_mutate(POLICY, edits))
    assert (policy is None) == has_errors(diags)
    if policy is not None:
        reparsed, rediags = parse_policy(format_policy(policy))
        assert rediags == []
        assert policy_hash(reparsed) == policy_hash(policy)


@given(_EDITS)
@example([])
@example([_insert(SUITE, '"weight_kg": "', "1", 40)])
@example([_insert(SUITE, '"age": ', "1", 5000)])
def test_mutated_suites_parse_without_raising(edits):
    suite, diags = parse_suite(_mutate(SUITE, edits))
    assert (suite is None) == has_errors(diags)


class _RecursiveParser(_Parser):
    """The recursive-descent condition parser that ``_Parser._condition``
    replaced, kept as its reference. Each method takes the number of "("
    and "not" open around it and returns its condition with its height."""

    def _condition(self):
        return self._expr(0)[0]

    def _expr(self, opened):
        left, height = self._and_expr(opened)
        while self.at("or"):
            tok = self.advance()
            right, right_height = self._and_expr(opened)
            left = Or(left, right, line=left.line, col=left.col)
            height = _nested(max(height, right_height) + 1, tok)
        return left, height

    def _and_expr(self, opened):
        left, height = self._not_expr(opened)
        while self.at("and"):
            tok = self.advance()
            right, right_height = self._not_expr(opened)
            left = And(left, right, line=left.line, col=left.col)
            height = _nested(max(height, right_height) + 1, tok)
        return left, height

    def _not_expr(self, opened):
        tok = self.peek()
        if not (self.at("not") or self.at("(")):
            return self._atom(), 0
        self.advance()
        opened = _open(opened + 1, tok)
        if tok.text == "not":
            inner, height = self._not_expr(opened)
            return Not(inner, line=tok.line, col=tok.col), _nested(height + 1, tok)
        inner, height = self._expr(opened)
        self.expect(")")
        return inner, height


def _nested(height, tok):
    if height > MAX_NESTING:
        raise _ParseError(f"condition nests deeper than {MAX_NESTING} levels", tok, "nesting_too_deep")
    return height


def _open(opened, tok):
    if opened > _MAX_OPEN:
        raise _ParseError(f"condition has more than {_MAX_OPEN} '(' and 'not' open at once", tok, "nesting_too_deep")
    return opened


def _parsed(parser_type, text):
    """Everything a parse yields: each condition tree with the positions of
    its nodes (in ``repr``), the rendered diagnostics and the digest."""
    diags = []
    parser = parser_type(_lex(text, diags), diags)
    parser.run()
    policy = parser.resolve()
    trees = (parser.consistency, parser.exclusions, parser.rules, parser.justification, parser.vetoes)
    return repr(trees), [d.render() for d in diags], policy and policy_hash(policy)


_BASES = [POLICY] + [format_policy(make_kind_policy(seed)) for seed in range(3)]


def _wrap_veto(size):
    return ("wrap", POLICY.index("veto "), "(", size)


@settings(max_examples=800)
@given(st.sampled_from(_BASES), _CONDITION_EDITS)
@example(POLICY, [_wrap_veto(190)])
@example(POLICY, [_wrap_veto(_MAX_OPEN)])
@example(POLICY, [_wrap_veto(_MAX_OPEN + 1)])
@example(POLICY, [("nest", 0, "not ", MAX_NESTING)])
@example(POLICY, [("nest", 0, "not ", MAX_NESTING + 1)])
@example(POLICY, [("wrap", 0, "(not ", MAX_NESTING + 1)])
def test_the_stack_parser_reads_every_text_as_the_recursive_parser(base, edits):
    text = _mutate(base, edits)
    assert _parsed(_Parser, text) == _parsed(_RecursiveParser, text)


# Each list a statement holds: an enumeration or known_risks in braces, a
# require list, and a rule's requires and incompatible lists.
_LIST_RE = re.compile(r"(?<=\{ )[^{}]+(?= \})|(?<=^require ).+|(?<=requires ).+?(?= when )|(?<=incompatible ).+$")


def _shuffled(text, rng):
    """``text``, as ``format_policy`` prints it, with its top-level
    statements, its vetoes and the entries of each list shuffled."""

    def shuffle_list(match):
        entries = re.split(r",? ", match.group())
        rng.shuffle(entries)
        return ", ".join(entries)

    lines = [_LIST_RE.sub(shuffle_list, line) for line in text.splitlines()]
    start, end = lines.index("stewardship {"), lines.index("}")
    justification, vetoes = lines[start + 1], lines[start + 2 : end]
    rng.shuffle(vetoes)
    statements = [line for line in lines[:start] + lines[end + 1 :] if line]
    statements.append("\n".join(["stewardship {", justification, *vetoes, "}"]))
    rng.shuffle(statements)
    return "\n".join(statements) + "\n"


def _decisions(policy, cases):
    return [b"".join(map(canonical_serialize, decide(policy, case))) for case in cases]


_ORDERED = [(parse_policy(POLICY)[0], load_reference_suite().cases)] + [
    (make_kind_policy(seed), tuple(kind_cases(seed, 40))) for seed in range(3)
]


@given(st.sampled_from(range(len(_ORDERED))), st.randoms(use_true_random=False))
def test_statement_order_reaches_no_policy_output(index, rng):
    policy, cases = _ORDERED[index]
    text = format_policy(policy)
    shuffled, diags = parse_policy(_shuffled(text, rng))
    assert diags == []
    assert shuffled == policy
    assert format_policy(shuffled) == text
    assert policy_hash(shuffled) == policy_hash(policy)
    assert _decisions(shuffled, cases) == _decisions(policy, cases)


_SUITES = [load_reference_suite()] + [Suite("kinds", "v1", ("generated",), cases) for _, cases in _ORDERED[1:]]
# Negations keep a policy well formed while they move which rules fire;
# the condition edits mostly leave a text that does not parse.
_NEGATIONS = st.lists(st.tuples(st.just("wrap"), _AT, st.just("(not "), st.integers(1, 2)), min_size=1, max_size=8)


@settings(max_examples=200)
@given(st.sampled_from(range(len(_ORDERED))), st.one_of(_NEGATIONS, _CONDITION_EDITS))
@example(0, [])
def test_engine_built_traces_encode_to_the_reference_form(index, edits):
    # Stages 1-3 of an engine-built trace carry text picked from per-policy
    # tables; it must be the bytes the reference form gives, record by record.
    policy, _ = parse_policy(_mutate(format_policy(_ORDERED[index][0]), edits))
    suite = _SUITES[index]
    if policy is None or has_errors(bind_suite(suite, policy)):
        return
    for case in suite.cases:
        trace = decide(policy, case)[1]
        assert canonical_serialize(trace) == canonical_bytes(trace.to_canonical())
        for record in trace.stages:
            assert canonical_serialize(record) == canonical_bytes(record.to_canonical())
