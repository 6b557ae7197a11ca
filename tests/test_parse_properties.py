"""Properties of the two parsers over mutated reference texts.

Every text, however damaged, parses to a result or to diagnostics and never
raises; and a policy that parses prints back to text that parses to the same
digest. The mutations insert characters and runs of characters (long
numerals among them), delete and duplicate spans, and put runs of "not"
before a condition; hypothesis draws them under the derandomized profile of
``conftest.py``.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from absgate import format_policy, has_errors, parse_policy, parse_suite, policy_hash
from absgate.dsl import MAX_NESTING
from absgate.reference import reference_policy_text, reference_suite_text

POLICY = reference_policy_text()
SUITE = reference_suite_text()

_CHARS = "\t\r\x0b\x0c\x1c\xa0\ufeff\n $@.-=!#()[]{},:<>\"'\\_0123456789aez"
_AT = st.integers(min_value=0, max_value=1 << 20)  # taken modulo the text's length
_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _AT, st.sampled_from(_CHARS), st.integers(1, 3)),
        st.tuples(st.just("insert"), _AT, st.sampled_from("019"), st.integers(1, 5000)),
        st.tuples(st.just("delete"), _AT, st.just(""), st.integers(1, 40)),
        st.tuples(st.just("duplicate"), _AT, st.just(""), st.integers(1, 40)),
        # Deepens the condition after the next "when " by `size` levels.
        st.tuples(st.just("nest"), _AT, st.just("not "), st.integers(90, 210)),
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
        elif op == "nest" and "when " in text[at:]:
            at = text.index("when ", at) + len("when ")
            text = text[:at] + chars * size + text[at:]
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
