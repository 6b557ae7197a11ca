"""Properties of the two parsers over mutated reference texts.

Every text, however damaged, parses to a result or to diagnostics and never
raises; a policy that parses prints back to text that parses to the same
digest, which is the digest of its reference canonical form; and the explicit-stack condition parser reads every text as the
recursive-descent one it replaced does, and the one reference checker it
shares with ``Policy`` reports as the two-layer resolver it replaced. The
mutations insert characters, words and runs of them (long numerals among
them), delete and duplicate spans, put runs of "not" before a condition,
wrap one in parentheses and rename a referenced name or a literal;
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
from absgate.canon import canonical_bytes, canonical_hash
from absgate.model import canonical_serialize
from absgate.condition import And, Not, Or, typecheck
from absgate.diagnostics import Diagnostic, Severity
from absgate.dsl import _MAX_OPEN, MAX_NESTING, _lex, _Parser, _ParseError
from absgate.policy import ClinicalRule, Policy, StewardshipSpec, StewardshipVeto
from absgate.reference import reference_policy_text, reference_suite_text

from canonical_forms import policy_form, record_form, trace_form
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


# A reference site: the first name after "require", "requires",
# "candidate", "incompatible" or "class", or the literal after a comparison
# operator. A "rename" edit replaces the site's text with its `chars`.
_SITE_RE = re.compile(r"(?:\b(?:requires?|candidate|incompatible|class)|[=<>]) ([\w.]+)")
_RENAME = st.tuples(
    st.just("rename"), _AT, st.sampled_from(["ghost", "r_cellulitis_pcn", "true", "7", "2.5", "mild"]), st.just(1)
)


def _mutate(text, edits):
    for op, at, chars, size in edits:
        at %= len(text) + 1
        if op == "rename":
            sites = list(_SITE_RE.finditer(text))
            if sites:
                start, end = sites[at % len(sites)].span(1)
                text = text[:start] + chars + text[end:]
        elif op == "insert":
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
        assert policy_hash(policy) == canonical_hash(policy_form(policy))


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
            left = Or(left, right)
            height = _nested(max(height, right_height) + 1, tok)
        return left, height

    def _and_expr(self, opened):
        left, height = self._not_expr(opened)
        while self.at("and"):
            tok = self.advance()
            right, right_height = self._not_expr(opened)
            left = And(left, right)
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
            return Not(inner), _nested(height + 1, tok)
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
    """Everything a parse yields: each condition tree (in ``repr``), the
    rendered diagnostics, each at its line and column, and the digest."""
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


class _TwoLayerParser(_Parser):
    """The resolver that checked every reference itself before it built the
    ``Policy``, which checked them again, kept as the reference of the one
    checker ``_Parser.resolve`` now shares with ``Policy``."""

    def _typecheck(self, cond):
        for code, message, leaf in typecheck(cond, self.fields):
            self.error(code, message, self.leaf_tokens[id(leaf)])

    def resolve(self):
        if self.header is None:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no policy header declared"))
        if not self.fields:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no fields declared"))
        if not self.classes:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no classes declared"))
        if self.justification is None:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no stewardship block declared"))

        for name, tok in self.required.items():
            if name not in self.fields:
                self.error("unknown_field", f"required field '{name}' is not declared", tok)

        clinical_ids = {name.text for name, *_ in self.rules}
        for name, when, candidate, requires, incompatible in self.rules:
            self._typecheck(when)
            for tok in requires:
                if tok.text not in self.fields:
                    self.error("unknown_field", f"rule '{name.text}' requires undeclared field '{tok.text}'", tok)
            if candidate.text not in self.classes:
                self.error("unknown_class", f"rule '{name.text}' nominates undeclared class '{candidate.text}'", candidate)
            for tok in incompatible:
                if tok.text == name.text:
                    self.error("self_incompatibility", f"rule '{name.text}' declared incompatible with itself", tok)
                elif tok.text not in clinical_ids:
                    self.error("unknown_rule", f"rule '{name.text}' incompatible with unknown rule '{tok.text}'", tok)

        for constraint in self.consistency:
            self._typecheck(constraint.forbid)
        for exclusion in self.exclusions:
            self._typecheck(exclusion.when)
        if self.justification is not None:
            self._typecheck(self.justification)
        for veto_id, class_tok, when in self.vetoes:
            self._typecheck(when)
            if class_tok.text not in self.classes:
                self.error(
                    "unknown_class", f"veto '{veto_id.text}' targets undeclared class '{class_tok.text}'", class_tok
                )

        if has_errors(self.diags):
            return None
        clinical = tuple(
            ClinicalRule(name.text, when, candidate.text, tuple(t.text for t in requires), tuple(t.text for t in incompatible))
            for name, when, candidate, requires, incompatible in self.rules
        )
        vetoes = tuple(StewardshipVeto(veto_id.text, class_tok.text, when) for veto_id, class_tok, when in self.vetoes)
        try:
            return Policy(
                policy_id=self.header[0],
                version=self.header[1],
                schema=tuple(self.fields.values()),
                classes=tuple(self.classes.values()),
                stewardship=StewardshipSpec(self.justification, vetoes),
                required=tuple(self.required),
                known_risks=frozenset(self.known_risks),
                consistency=tuple(self.consistency),
                exclusions=tuple(self.exclusions),
                clinical_rules=clinical,
            )
        except ValueError as exc:
            self.diags.append(Diagnostic(Severity.ERROR, "invalid_policy", str(exc)))
            return None


def _rename(text, after, name):
    """The edit that renames the reference site right after ``after``."""
    at = text.index(after) + len(after)
    return ("rename", [site.start(1) for site in _SITE_RE.finditer(text)].index(at), name, 1)


# A text without its classes and its stewardship block, so every candidate
# is undeclared as well.
_SECTIONLESS = re.sub(r"^class .*\n", "", POLICY[: POLICY.index("stewardship {")], flags=re.M)


# One example per finding kind: a required name, a requires name, a
# candidate, an unknown incompatible id, the rule's own id, a veto class, a
# condition's literal; then the text that lacks two sections.
@settings(max_examples=400)
@given(st.sampled_from(_BASES), st.lists(st.one_of(_EDIT, _RENAME), min_size=1, max_size=5))
@example(POLICY, [_rename(POLICY, "require ", "ghost")])
@example(POLICY, [_rename(POLICY, "requires ", "ghost")])
@example(POLICY, [_rename(POLICY, "candidate ", "ghost")])
@example(POLICY, [_rename(POLICY, "incompatible ", "ghost")])
@example(POLICY, [_rename(POLICY, "incompatible ", "r_cellulitis_pcn")])
@example(POLICY, [_rename(POLICY, "v_renal_antipseudomonal class ", "ghost")])
@example(POLICY, [_rename(POLICY, "age < ", "mild")])
@example(_SECTIONLESS, [_rename(_SECTIONLESS, "require ", "ghost")])
def test_the_one_checker_reports_every_text_as_the_two_layer_resolver(base, edits):
    text = _mutate(base, edits)
    assert _parsed(_Parser, text) == _parsed(_TwoLayerParser, text)


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
        assert canonical_serialize(trace) == canonical_bytes(trace_form(trace))
        for record in trace.stages:
            assert canonical_serialize(record) == canonical_bytes(record_form(record))
