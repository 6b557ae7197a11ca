"""Case suite loading, binding, and hashing.

A suite is a JSON document: header identity, a mechanism vocabulary, and at
least one case. Parsing checks shape and construction the rules; binding
type-checks every case field against a policy schema and verifies expected
class ids, so anything that survives both steps can be decided without
surprises.

Suites repeat themselves: cases draw their fields from a few booleans,
tokens, small ints and token sets. One parse builds each distinct accepted
field value and expectation once, and the cases share them: a JSON string is
keyed by itself, any other value by its class and value, so ``"true"``,
``true`` and ``1`` stay apart. Binding checks each distinct accepted (field
name, value) pair once. Only successes are kept, and only for the one call,
so a rejected value is parsed again and reports with every case that carries
it.

A ``Suite`` holds its cases by id and its mechanisms sorted without
duplicates, so ``suite_hash`` is insensitive to source ordering while any
change to fields, descriptions, or expected behaviors changes the digest.
Construction is the one checker of a suite's rules: ``Suite`` raises the
first finding of ``suite_findings`` (header, each case in the order given,
an empty case list), and ``CaseInput`` and ``ExpectedBehavior`` check each
case. ``parse_suite`` checks JSON shape and field values, builds each case
and the ``Suite`` directly, and reports each refusal under its diagnostic
code. Within a case, shape and value findings come first, and
construction's refusal is reported only when they pass.

``suite_hash`` digests the canonical JSON text that ``_suite_json`` writes
directly (key layout in the README), encoding each distinct field value
and expectation instance once per call, since parsed cases share them.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring as _quote
from typing import Any, Iterator, Sequence

from .canon import sha256_hex
from .diagnostics import Diagnostic, Severity, has_errors
from .model import (
    IDENT_RE,
    TOKEN_RE,
    AbstentionCategory,
    Action,
    CaseInput,
    ExpectedBehavior,
    FieldKind,
    FieldValue,
    _expected_json,
    _Frozen,
    _name,
    _set,
    _value_json,
)
from .policy import FieldDecl, Policy, policy_hash

__all__ = ["MAX_DEPTH", "Suite", "suite_findings", "parse_suite", "bind_suite", "suite_hash"]

# The most arrays and objects a suite document may hold inside one another;
# a suite itself needs 5 (document, cases, case, fields, token set). A rule
# of the format, so that neither the recursion limit nor the interpreter's
# JSON decoder decides whether a document is accepted.
MAX_DEPTH = 32
# A JSON string, closed or running to the end of the scan, or one bracket.
_SCAN_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[\]{}]', re.S)
_TOO_DEEP = Diagnostic(Severity.ERROR, "malformed_document", "document nests too deeply")

_PIN_RE = re.compile(r"^[0-9a-f]{64}\Z")
# Enum members read as globals, several times cheaper than off their classes.
_TOKEN, _TOKEN_SET, _RECOMMEND = FieldKind.TOKEN, FieldKind.TOKEN_SET, Action.RECOMMEND

_TOP_KEYS = {"suite_id", "version", "policy_hash_pin", "mechanisms", "cases"}
_CASE_KEYS = {"id", "description", "mechanism", "fields", "expect"}


class Suite(_Frozen):
    _fields = ("suite_id", "version", "mechanisms", "cases", "policy_hash_pin")

    def __init__(
        self, suite_id: str, version: str, mechanisms: tuple[str, ...], cases: tuple[CaseInput, ...],
        policy_hash_pin: str | None = None,
    ) -> None:
        mechanisms, cases = tuple(mechanisms), tuple(cases)
        for _code, message in suite_findings(suite_id, version, policy_hash_pin, mechanisms, cases):
            raise ValueError(message)
        _set(self, "suite_id", suite_id)
        _set(self, "version", version)
        _set(self, "mechanisms", tuple(sorted(set(mechanisms))))
        _set(self, "cases", tuple(sorted(cases, key=lambda c: c.case_id)))
        _set(self, "policy_hash_pin", policy_hash_pin)

    def case(self, case_id: str) -> CaseInput | None:
        for case in self.cases:
            if case.case_id == case_id:
                return case
        return None


def suite_findings(
    suite_id: Any, version: Any, pin: Any, mechanisms: Sequence[Any], cases: Sequence[Any]
) -> Iterator[tuple[str, str]]:
    """Each defect of a suite's parts as ``(code, message)``: the id, the
    version, the pin and each mechanism, then each case in the order given,
    then an empty case list."""
    pins = [] if pin is None else [("invalid_pin", pin, _PIN_RE, "policy hash pin is not 64 lowercase hex digits")]
    names = [
        ("malformed_document", suite_id, IDENT_RE, "suite id is not an identifier"),
        ("malformed_document", version, TOKEN_RE, "suite version is not a token"),
        *pins,
        *[("malformed_document", mechanism, TOKEN_RE, "mechanism is not a token") for mechanism in mechanisms],
    ]
    for code, value, pattern, what in names:
        try:
            _name(value, pattern, what)
        except ValueError as exc:
            yield code, str(exc)
    # A case's mechanism is a token, so no bad entry can match one.
    vocabulary = {mechanism for mechanism in mechanisms if type(mechanism) is str}
    seen: set[str] = set()
    for case in cases:
        if type(case) is not CaseInput:
            yield "malformed_case", f"case is not a CaseInput: {case!r}"
        elif case.case_id in seen:
            yield "duplicate_case_id", f"case id '{case.case_id}' appears twice"
        else:
            seen.add(case.case_id)
            if case.mechanism not in vocabulary:
                message = f"case '{case.case_id}': mechanism '{case.mechanism}' is not in the suite vocabulary"
                yield "unknown_mechanism", message
    if not cases:
        yield "empty_suite", "suite must carry at least one case"


def _err(diags: list[Diagnostic], code: str, message: str) -> None:
    diags.append(Diagnostic(Severity.ERROR, code, message))


def _warn(diags: list[Diagnostic], code: str, message: str) -> None:
    diags.append(Diagnostic(Severity.WARNING, code, message))


def _parse_expect(raw: Any, case_id: str, diags: list[Diagnostic]) -> ExpectedBehavior | None:
    if not isinstance(raw, dict) or len(raw) != 1:
        _err(diags, "unknown_expected_behavior", f"case '{case_id}': expect must be a one-key object")
        return None
    key, value = next(iter(raw.items()))
    if key == "recommend":
        if not isinstance(value, str):
            _err(diags, "unknown_expected_behavior", f"case '{case_id}': bad recommend expectation {value!r}")
            return None
        try:
            return ExpectedBehavior(Action.RECOMMEND, class_id=None if value == "any" else value)
        except ValueError as exc:
            _err(diags, "unknown_expected_behavior", f"case '{case_id}': {exc}")
            return None
    if key == "abstain":
        if not isinstance(value, str):
            _err(diags, "unknown_expected_behavior", f"case '{case_id}': bad abstain expectation {value!r}")
            return None
        if value == "any":
            return ExpectedBehavior(Action.ABSTAIN)
        try:
            category = AbstentionCategory(value)
        except ValueError:
            _err(diags, "unknown_expected_behavior", f"case '{case_id}': unknown abstention category {value!r}")
            return None
        return ExpectedBehavior(Action.ABSTAIN, category=category)
    _err(diags, "unknown_expected_behavior", f"case '{case_id}': expect key must be recommend or abstain")
    return None


def _parse_case(
    raw: Any,
    index: int,
    values: dict[Any, FieldValue],
    expectations: dict[Any, ExpectedBehavior],
    diags: list[Diagnostic],
) -> CaseInput | None:
    # ``values`` and ``expectations`` hold what this parse has accepted so far.
    if not isinstance(raw, dict):
        _err(diags, "malformed_case", f"case #{index} is not an object")
        return None
    case_id = raw.get("id")
    if not isinstance(case_id, str) or not (case_id.isascii() and case_id.isidentifier()):  # as _name tests IDENT_RE
        _err(diags, "malformed_case", f"case #{index}: missing or invalid id")
        return None
    if not raw.keys() <= _CASE_KEYS:
        for key in raw:
            if key not in _CASE_KEYS:
                _warn(diags, "unknown_key", f"case '{case_id}': unknown key {key!r}")
    fields = raw.get("fields")
    if not isinstance(fields, dict):
        _err(diags, "malformed_case", f"case '{case_id}': fields must be an object")
        return None
    # The decoded object becomes the case's fields: each value is replaced
    # in place by its FieldValue, and a case that fails is dropped with it.
    ok = True
    for name, raw_value in fields.items():
        # A string is its own key. Any other value is keyed with its class,
        # since True == 1 == 1.0 and they hash alike; no str equals a tuple.
        kind = raw_value.__class__
        key = raw_value if kind is str else (kind, tuple(raw_value) if kind is list else raw_value)
        try:
            value = values.get(key)
        except TypeError:  # a nested array or an object cannot be a key
            value = None
        if value is None:
            try:
                value = FieldValue.from_json(raw_value)
            except ValueError as exc:
                _err(diags, "invalid_field_value", f"case '{case_id}', field '{name}': {exc}")
                ok = False
                continue
            values[key] = value  # an accepted value is no nested array or object, so it hashes
        fields[name] = value
    raw_expect = raw.get("expect")
    item = tuple(raw_expect.items()) if isinstance(raw_expect, dict) else None
    try:
        expected = expectations.get(item)
    except TypeError:  # an unhashable value, which no expectation accepts
        expected = None
    if expected is None:
        expected = _parse_expect(raw_expect, case_id, diags)
        if expected is not None:
            expectations[item] = expected
    if expected is None or not ok:
        return None
    try:
        return CaseInput(case_id, raw.get("description"), raw.get("mechanism"), fields, expected)
    except ValueError as exc:
        _err(diags, "malformed_case", f"case '{case_id}': {exc}")
        return None


def _json_int(text: str) -> int:
    # Counts the digits before ``int()`` runs, so the interpreter's limit on
    # int-string digits never decides which diagnostic a long integer gets.
    if len(text.lstrip("-")) > 19:  # the digits of INT64_MAX
        raise ValueError("too many digits")
    return int(text)


def _too_deep(text: str, end: int) -> bool:
    """Whether ``text[:end]`` opens more than MAX_DEPTH arrays and objects at
    once outside strings."""
    depth = 0
    for token in _SCAN_RE.findall(text, 0, end):
        if token in "[{":
            depth += 1
            if depth > MAX_DEPTH:
                return True
        elif token in "]}":
            depth -= 1
    return False


def parse_suite(text: str) -> tuple[Suite | None, list[Diagnostic]]:
    """Parse suite JSON; returns (suite or None, diagnostics).

    A document deeper than MAX_DEPTH gets that one diagnostic. Its text is
    measured only when decoding fails or the parse finds an error or an
    unknown key: a parse without either read every part, and a part it
    reads cleanly is at most 5 deep. So a deeper value that a repeated key
    replaces in a clean document goes unmeasured."""
    diags: list[Diagnostic] = []
    try:
        document = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        if _too_deep(text, exc.pos):
            return None, [_TOO_DEEP]
        diags.append(Diagnostic(Severity.ERROR, "malformed_document", exc.msg, exc.lineno, exc.colno))
        return None, diags
    except RecursionError:
        return None, [_TOO_DEEP]
    except ValueError:  # an integer of more than 19 digits
        _err(diags, "malformed_document", "document holds an integer with too many digits")
        return None, diags
    suite = _suite_from(document, diags)
    if any(d.severity is Severity.ERROR or d.code == "unknown_key" for d in diags) and _too_deep(text, len(text)):
        return None, [_TOO_DEEP]
    return suite, diags


def _suite_from(document: Any, diags: list[Diagnostic]) -> Suite | None:
    """The suite a decoded document holds, or None; findings go to ``diags``."""
    if not isinstance(document, dict):
        _err(diags, "malformed_document", "suite document must be a JSON object")
        return None
    for key in document:
        if key not in _TOP_KEYS:
            _warn(diags, "unknown_key", f"unknown top-level key {key!r}")

    mechanisms = document.get("mechanisms")
    if not isinstance(mechanisms, list):
        _err(diags, "malformed_document", "mechanisms must be an array of tokens")
        mechanisms = []
    seen: set[str] = set()
    for entry in mechanisms:
        if isinstance(entry, str):
            if entry in seen:
                _warn(diags, "duplicate_mechanism", f"mechanism '{entry}' listed twice")
            seen.add(entry)

    raw_cases = document["cases"] if isinstance(document.get("cases"), list) else []
    values: dict[Any, FieldValue] = {}
    expectations: dict[Any, ExpectedBehavior] = {}
    parsed = [_parse_case(raw, index, values, expectations, diags) for index, raw in enumerate(raw_cases)]
    cases = [case for case in parsed if case is not None]

    suite_id, version, pin = document.get("suite_id"), document.get("version"), document.get("policy_hash_pin")
    if not has_errors(diags):
        try:
            return Suite(suite_id, version, tuple(mechanisms), tuple(cases), pin)
        except ValueError:
            pass
    for code, message in suite_findings(suite_id, version, pin, mechanisms, cases):
        if code != "empty_suite" or not raw_cases:  # each case that failed to parse has said why
            _err(diags, code, message)
    return None


def _bind_value(
    case_id: str, name: str, value: FieldValue, decls: dict[str, FieldDecl], diags: list[Diagnostic]
) -> bool:
    """Check one case field against the schema; True when it binds clean."""
    decl = decls.get(name)
    if decl is None:
        _err(diags, "unknown_field", f"case '{case_id}': field '{name}' is not declared by the policy")
        return False
    if value.kind is not decl.kind:
        _err(
            diags,
            "type_mismatch",
            f"case '{case_id}': field '{name}' is {decl.kind.value} but the value is {value.kind.value}",
        )
        return False
    if decl.kind is _TOKEN and decl.enum is not None and value.value not in decl.enum:
        _err(
            diags,
            "unknown_enum_token",
            f"case '{case_id}': token '{value.value}' is outside the enumeration of '{name}'",
        )
        return False
    if decl.kind is _TOKEN_SET and decl.enum is not None:
        outside = sorted(value.value.difference(decl.enum))
        for token in outside:
            _err(
                diags,
                "unknown_enum_token",
                f"case '{case_id}': token '{token}' is outside the enumeration of '{name}'",
            )
        return not outside
    return True


def bind_suite(suite: Suite, policy: Policy) -> list[Diagnostic]:
    """Type-check a parsed suite against a policy; returns diagnostics.

    Errors block evaluation; the only warning is ``policy_drift`` when the
    suite pins a different policy hash than the one supplied.
    """
    diags: list[Diagnostic] = []
    if suite.policy_hash_pin is not None:
        actual = policy_hash(policy)
        if actual != suite.policy_hash_pin:
            _warn(
                diags,
                "policy_drift",
                f"suite pins policy hash {suite.policy_hash_pin[:12]}..., supplied policy hashes {actual[:12]}...",
            )
    declared_classes = {c.class_id for c in policy.classes}
    decls = policy.field_map()
    # Clean pairs are keyed by the value's id, which hashes in C; each value
    # is held, so no id is reused during the call. Errors are never kept, so
    # a bad value reports once for every case.
    clean: dict[tuple[str, int], FieldValue] = {}
    for case in suite.cases:
        for name, value in case.fields.items():
            key = (name, id(value))
            if key not in clean and _bind_value(case.case_id, name, value, decls, diags):
                clean[key] = value
        expected = case.expected
        if expected.action is _RECOMMEND and expected.class_id is not None:
            if expected.class_id not in declared_classes:
                _err(
                    diags,
                    "unknown_expected_class",
                    f"case '{case.case_id}': expected class '{expected.class_id}' is not declared by the policy",
                )
    return diags


def _suite_json(suite: Suite) -> str:
    """The canonical JSON text of ``suite``, cases in id order: keys in
    sorted order, every string through the escaper that
    ``json.dumps(ensure_ascii=False)`` uses. The construction checks of
    ``Suite``, ``CaseInput``, ``FieldValue`` and ``ExpectedBehavior``
    guarantee that no float or other value ``canonical_bytes`` refuses can
    reach it."""
    texts: dict[int, str] = {}  # id of a FieldValue or ExpectedBehavior -> its text
    # Holds every instance in ``texts``, so no id is reused during the call
    # even when a case's mapping makes its values on access.
    encoded: list[Any] = []
    cases = []
    for case in suite.cases:
        fields = case.fields
        entries = []
        for name in sorted(fields):
            value = fields[name]
            text = texts.get(id(value))
            if text is None:
                text = texts[id(value)] = _value_json(value)
                encoded.append(value)
            entries.append(f"{_quote(name)}:{text}")
        expected = case.expected
        expect = texts.get(id(expected))
        if expect is None:
            expect = texts[id(expected)] = _expected_json(expected)
            encoded.append(expected)
        cases.append(
            f'{{"description":{_quote(case.description)},"expect":{expect},"fields":{{{",".join(entries)}}},'
            f'"id":{_quote(case.case_id)},"mechanism":{_quote(case.mechanism)}}}'
        )
    pin = "" if suite.policy_hash_pin is None else f'"policy_hash_pin":"{suite.policy_hash_pin}",'
    return (
        f'{{"cases":[{",".join(cases)}],"mechanisms":[{",".join(map(_quote, suite.mechanisms))}],{pin}'
        f'"suite":{_quote(suite.suite_id)},"version":{_quote(suite.version)}}}'
    )


def suite_hash(suite: Suite) -> str:
    """SHA-256 hex digest of the canonical suite form."""
    return sha256_hex(_suite_json(suite).encode("utf-8"))
