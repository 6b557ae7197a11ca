"""Domain vocabulary: field values, outputs, expectations, audit traces.

The decision surface is deliberately closed: a run of the engine ends in
exactly one of two shapes, a recommendation of a single class or a typed
abstention, and nothing in this module can represent both at once. All value
types here are immutable and hashable where practical. Each hashed value
has one encoder, which writes canonical JSON text: ``canonical_serialize``
for outputs, stage records and traces, ``_value_json`` and
``_expected_json`` for a suite's values and expectations. The ``evaluate``
report embeds the ``to_canonical`` dict forms of outputs and expectations.

Numeric discipline: integers are 64-bit signed; decimals are exact
fixed-point with four fractional digits, carried as ``decimal.Decimal`` and
rendered as strings so no binary float ever reaches serialization. A decimal
has at most 28 digits, four of them fractional. Decimals are read and
quantized under this module's own context, so whether one is accepted never
depends on the caller's ``decimal`` context.

Every name and value a constructor refuses raises ``ValueError``, a name
that is not a ``str`` included: one check, ``_name``, refuses every bad id,
label and token. A category, stage, verdict or trace part of the wrong type
raises ``TypeError``.
"""

from __future__ import annotations

import re
from decimal import Context, Decimal, InvalidOperation
from enum import Enum
from json.encoder import encode_basestring as _quote
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Mapping

__all__ = [
    "IDENT_RE",
    "TOKEN_RE",
    "INT64_MIN",
    "INT64_MAX",
    "FieldKind",
    "FieldValue",
    "Action",
    "AbstentionCategory",
    "AbstentionReason",
    "SystemOutput",
    "MatchLevel",
    "ExpectedBehavior",
    "CaseInput",
    "Stage",
    "Verdict",
    "StageRecord",
    "AuditTrace",
    "PIPELINE_STAGES",
    "compare_outputs",
    "canonical_serialize",
]

# Identifiers name declared things (fields, classes, rules, labels); token
# values are the stricter lowercase vocabulary carried inside cases.
IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\Z")
TOKEN_RE = re.compile(r"^[a-z][a-z0-9_]*\Z")
_DECIMAL_TEXT_RE = re.compile(r"^-?[0-9]+\.[0-9]{1,4}\Z")
# A lone surrogate is a str that no UTF-8 output can hold.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_QUANTUM = Decimal("0.0001")
# Every decimal is read and quantized under this context, never the caller's;
# only its flags change, and nothing reads them.
_CONTEXT = Context(prec=28, traps=[InvalidOperation])


def _name(value: Any, pattern: re.Pattern[str], what: str) -> str:
    """``value`` when it is a ``str`` that ``pattern`` matches; anything else
    raises ``ValueError`` with the message ``f"{what}: {value!r}"``.

    ``IDENT_RE`` and ``TOKEN_RE`` are tested without the regex: on ASCII
    text, ``str.isidentifier`` accepts exactly ``[A-Za-z_][A-Za-z0-9_]*``,
    and a token is such a name whose letters are all lowercase and whose
    first character is one of them. Any other pattern is matched."""
    if type(value) is not str or not (
        value.isascii() and value.isidentifier() and (pattern is IDENT_RE or value.islower() and value[0] != "_")
        if pattern is IDENT_RE or pattern is TOKEN_RE
        else pattern.match(value)
    ):
        raise ValueError(f"{what}: {value!r}")
    return value


def _sorted_names(items: Iterable[Any], pattern: re.Pattern[str], what: str) -> tuple[str, ...]:
    """``items`` sorted without duplicates, each checked by ``_name`` in
    the order given. A bare ``str`` is refused, not split into characters."""
    if isinstance(items, str):
        raise ValueError(f"names must be a collection, not the string {items!r}")
    return tuple(sorted({_name(item, pattern, what) for item in items}))


# Stores one field of a value being built. Unlike a write through the
# instance's ``__dict__``, it keeps CPython's compact attribute storage:
# no dict per instance, and faster attribute reads.
_set = object.__setattr__


def _field_repr(value: Any) -> str:
    """``repr``, but a ``frozenset`` lists its items sorted: the same whatever the hash seed."""
    if type(value) is frozenset and value:
        return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
    return repr(value)


class _Frozen:
    """Base of the value types that check or normalize themselves when built:
    a subclass lists its constructor parameters in ``_fields``, in ``repr``
    order, and its ``__init__`` checks them and stores each with ``_set``.
    Nothing can be set or deleted; ``==`` and ``hash`` go by class and by
    ``_key``, an ``attrgetter`` over ``_fields`` unless a subclass sets
    another. Pickles and copies hold the fields alone, so a cache kept in the
    instance (``_json``, ``_program``, ``_compiled``) is rebuilt on use, and
    ``_replace`` rebuilds through the constructor, checks and all."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={_field_repr(getattr(self, name))}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes: Any) -> Any:
        return self.__class__(**{**self.__getstate__(), **changes})


class FieldKind(str, Enum):
    BOOLEAN = "boolean"
    INTEGER = "integer"
    DECIMAL = "decimal"
    TOKEN = "token"
    TOKEN_SET = "token_set"


# The members in definition order, read as globals: a global read is several
# times cheaper than reading an enum member off its class.
_BOOLEAN, _INTEGER, _DECIMAL, _TOKEN, _TOKEN_SET = FieldKind


class FieldValue(_Frozen):
    """One typed case-input value, checked against its kind however it is
    built: a decimal is read from a string or a ``Decimal``, quantized to
    four fractional digits and normalized from ``-0``, and a token set
    becomes a ``frozenset``. So every value hashes and serializes."""

    _fields = ("kind", "value")

    def __init__(self, kind: FieldKind, value: Any) -> None:
        if kind is _BOOLEAN:
            if not isinstance(value, bool):
                raise ValueError(f"boolean value required, got {value!r}")
        elif kind is _INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"integer value required, got {value!r}")
            if not INT64_MIN <= value <= INT64_MAX:
                raise ValueError(f"integer out of 64-bit signed range: {value}")
        elif kind is _DECIMAL:
            if isinstance(value, str):
                try:
                    value = Decimal(value, _CONTEXT)
                except InvalidOperation as exc:
                    raise ValueError(f"not a decimal: {value!r}") from exc
            if not isinstance(value, Decimal) or not value.is_finite():
                raise ValueError(f"finite decimal required, got {value!r}")
            try:
                quantized = value.quantize(_QUANTUM, context=_CONTEXT)
            except InvalidOperation as exc:  # more than 28 digits
                raise ValueError(f"decimal out of range: {_CONTEXT.to_sci_string(value)}") from exc
            if quantized != value:
                raise ValueError(f"more than 4 fractional digits: {_CONTEXT.to_sci_string(value)}")
            # copy_abs normalizes -0.0000.
            value = quantized if quantized else quantized.copy_abs()
        elif kind is _TOKEN:
            _name(value, TOKEN_RE, "not a token (expected [a-z][a-z0-9_]*)")
        elif kind is _TOKEN_SET:
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise ValueError(f"token set requires a sequence of tokens, got {value!r}")
            items = list(value)
            if len(_sorted_names(items, TOKEN_RE, "not a token (expected [a-z][a-z0-9_]*)")) != len(items):
                raise ValueError(f"duplicate tokens in set: {items!r}")
            value = frozenset(items)
        else:
            raise ValueError(f"not a field kind: {kind!r}")
        _set(self, "kind", kind)
        _set(self, "value", value)

    @classmethod
    def boolean(cls, value: bool) -> "FieldValue":
        return cls(_BOOLEAN, value)

    @classmethod
    def integer(cls, value: int) -> "FieldValue":
        return cls(_INTEGER, value)

    @classmethod
    def decimal(cls, value: "Decimal | str") -> "FieldValue":
        return cls(_DECIMAL, value)

    @classmethod
    def token(cls, value: str) -> "FieldValue":
        return cls(_TOKEN, value)

    @classmethod
    def token_set(cls, values: Any) -> "FieldValue":
        return cls(_TOKEN_SET, values)

    @classmethod
    def from_json(cls, raw: Any) -> "FieldValue":
        """Map a raw JSON value to its field kind.

        JSON shape decides the kind: bool, int, string (decimal syntax vs
        token syntax, which are disjoint), or array of tokens. Whether the
        kind suits a particular schema field is checked later, at bind time.
        """
        if isinstance(raw, bool):
            return cls(_BOOLEAN, raw)
        if isinstance(raw, int):
            return cls(_INTEGER, raw)
        if isinstance(raw, str):
            if _DECIMAL_TEXT_RE.match(raw):
                return cls(_DECIMAL, raw)
            if TOKEN_RE.match(raw):
                return cls(_TOKEN, raw)
            raise ValueError(f"string is neither decimal nor token: {raw!r}")
        if isinstance(raw, list):
            return cls(_TOKEN_SET, raw)
        raise ValueError(f"unsupported field value: {raw!r}")


class Action(str, Enum):
    RECOMMEND = "recommend"
    ABSTAIN = "abstain"


_RECOMMEND, _ABSTAIN = Action


class AbstentionCategory(str, Enum):
    MISSING_INPUTS = "missing_inputs"
    UNKNOWN_RISK = "unknown_risk"
    CONFLICTING_SIGNALS = "conflicting_signals"
    EXPLICIT_EXCLUSION = "explicit_exclusion"
    CONSERVATIVE_AMBIGUITY = "conservative_ambiguity"


_EXPLICIT_EXCLUSION = AbstentionCategory.EXPLICIT_EXCLUSION


class AbstentionReason(_Frozen):
    """Why the engine declined, plus the identifiers that triggered it: any
    iterable of labels is kept sorted and without duplicates."""

    _fields = ("category", "labels")

    def __init__(self, category: AbstentionCategory, labels: tuple[str, ...]) -> None:
        if type(category) is not AbstentionCategory:
            raise TypeError(f"category is not an AbstentionCategory: {category!r}")
        labels = _sorted_names(labels, IDENT_RE, "label is not an identifier")
        if category is _EXPLICIT_EXCLUSION and not labels:
            raise ValueError("explicit exclusion requires at least one label")
        _set(self, "category", category)
        _set(self, "labels", labels)


class SystemOutput(_Frozen):
    """Exactly one of: recommendation of a class, or typed abstention.

    An output keeps its canonical JSON text once ``canonical_serialize`` has
    encoded it, so an output that many decisions share is encoded once. As
    with a ``StageRecord``'s text, it is not a field: ``==``, ``hash``,
    ``repr`` and ``_replace`` ignore it, and pickles and copies leave it out.
    """

    _fields = ("action", "class_id", "reason")
    _json = None

    def __init__(self, action: Action, class_id: str | None = None, reason: AbstentionReason | None = None) -> None:
        if action is _RECOMMEND:
            if class_id is None or reason is not None:
                raise ValueError("recommendation carries a class id and no reason")
            _name(class_id, IDENT_RE, "class id is not an identifier")
        elif action is _ABSTAIN:
            if reason is None or class_id is not None:
                raise ValueError("abstention carries a reason and no class id")
        else:
            raise ValueError(f"output action is not an Action: {action!r}")
        _set(self, "action", action)
        _set(self, "class_id", class_id)
        _set(self, "reason", reason)

    @classmethod
    def _trusted(cls, class_id: str | None, category: Any = None, labels: Iterable[str] = ()) -> "SystemOutput":
        """The recommendation of ``class_id``, or if None the abstention with ``category`` and ``labels``,
        for the engine alone: stored with ``_set``, without the checks that the policy and case passed."""
        output, reason = object.__new__(cls), None
        if class_id is None:
            reason = object.__new__(AbstentionReason)
            _set(reason, "category", category)
            _set(reason, "labels", tuple(sorted(labels)))
        _set(output, "action", _ABSTAIN if class_id is None else _RECOMMEND)
        _set(output, "class_id", class_id)
        _set(output, "reason", reason)
        return output

    @classmethod
    def recommend(cls, class_id: str) -> "SystemOutput":
        return cls(_RECOMMEND, class_id=class_id)

    @classmethod
    def abstain(cls, category: AbstentionCategory, labels: Iterable[str]) -> "SystemOutput":
        return cls(_ABSTAIN, reason=AbstentionReason(category, labels))

    def to_canonical(self) -> dict[str, Any]:
        if self.action is _RECOMMEND:
            return {"action": "recommend", "class": self.class_id}
        assert self.reason is not None
        return {"action": "abstain", "category": self.reason.category.value, "labels": list(self.reason.labels)}

    def render_line(self) -> str:
        """One-line human text form used by the decide command."""
        if self.action is _RECOMMEND:
            return f"recommend {self.class_id}"
        assert self.reason is not None
        labels = ", ".join(self.reason.labels)
        return f"abstain {self.reason.category.value} [{labels}]"


class MatchLevel(str, Enum):
    FULL = "full"
    ACTION = "action"
    MISMATCH = "mismatch"


_FULL, _ACTION, _MISMATCH = MatchLevel


class ExpectedBehavior(_Frozen):
    """Expected action for a case; ``None`` detail means wildcard ("any")."""

    _fields = ("action", "class_id", "category")

    def __init__(self, action: Action, class_id: str | None = None, category: AbstentionCategory | None = None) -> None:
        if type(action) is not Action:
            raise ValueError(f"expected action is not an Action: {action!r}")
        if action is _RECOMMEND:
            if category is not None:
                raise ValueError("recommend expectation cannot carry a category")
            if class_id is not None:
                _name(class_id, IDENT_RE, "class id is not an identifier")
        else:
            if class_id is not None:
                raise ValueError("abstain expectation cannot carry a class id")
            if category is not None and type(category) is not AbstentionCategory:
                raise ValueError(f"category is not an AbstentionCategory: {category!r}")
        _set(self, "action", action)
        _set(self, "class_id", class_id)
        _set(self, "category", category)

    def to_canonical(self) -> dict[str, str]:
        if self.action is _RECOMMEND:
            return {"recommend": self.class_id if self.class_id is not None else "any"}
        return {"abstain": self.category.value if self.category is not None else "any"}


_FIELD_VALUE_TYPE, _STR_TYPE = frozenset((FieldValue,)), frozenset((str,))


class CaseInput(_Frozen):
    """One evaluation case: typed fields plus the expected behavior."""

    _fields = ("case_id", "description", "mechanism", "fields", "expected")

    def __init__(
        self, case_id: str, description: str, mechanism: str, fields: Mapping[str, FieldValue],
        expected: ExpectedBehavior,
    ) -> None:
        _name(case_id, IDENT_RE, "case id is not an identifier")
        if not isinstance(description, str):
            raise ValueError(f"description is not a string: {description!r}")
        # A JSON escape can spell a lone surrogate; ASCII text holds none.
        if not str.isascii(description) and _SURROGATE_RE.search(description):
            raise ValueError("description is not valid Unicode text")
        _name(mechanism, TOKEN_RE, "mechanism is not a token")
        # C-level passes over the value types, the name types and the names
        # (``IDENT_RE`` as ``_name`` tests it); only a failure walks the
        # fields in order, checking as ``_name`` does.
        clean = (
            {*map(type, fields.values())} <= _FIELD_VALUE_TYPE
            and {*map(type, fields)} <= _STR_TYPE
            and "".join(fields).isascii()
            and all(map(str.isidentifier, fields))
        )
        if not clean:
            for name, value in fields.items():
                _name(name, IDENT_RE, "field name is not an identifier")
                if type(value) is not FieldValue:
                    raise ValueError(f"field {name!r} is not a FieldValue: {value!r}")
        if type(expected) is not ExpectedBehavior:
            raise ValueError(f"expected is not an ExpectedBehavior: {expected!r}")
        _set(self, "case_id", case_id)
        _set(self, "description", description)
        _set(self, "mechanism", mechanism)
        _set(self, "fields", fields)
        _set(self, "expected", expected)


class Stage(str, Enum):
    INPUT_ASSESSMENT = "input_assessment"
    EXCLUSIONS = "exclusions"
    CLINICAL_RULES = "clinical_rules"
    STEWARDSHIP = "stewardship"
    OUTPUT = "output"


PIPELINE_STAGES: tuple[Stage, ...] = tuple(Stage)


class Verdict(str, Enum):
    FIRED = "fired"
    NOT_FIRED = "not_fired"
    INDETERMINATE = "indeterminate"
    VETOED = "vetoed"


class StageRecord(_Frozen):
    """What one pipeline stage evaluated, in rule-id order.

    A record keeps its canonical JSON text once ``canonical_serialize`` has
    encoded it, so a record that many traces share is encoded once; one
    that the engine builds through ``_encoded`` arrives with it. The text is
    not a field, so ``==``, ``hash``, ``repr`` and ``_replace`` ignore it,
    and pickles and copies leave it out.
    """

    _fields = ("stage", "evaluated", "notes")
    _json = None

    def __init__(
        self, stage: Stage, evaluated: tuple[tuple[str, Verdict], ...] = (), notes: tuple[str, ...] = ()
    ) -> None:
        # Exact types, so that canonical_serialize can trust its tables.
        if type(stage) is not Stage:
            raise TypeError(f"stage is not a Stage: {stage!r}")
        evaluated = tuple(sorted(evaluated, key=itemgetter(0)))
        for _, verdict in evaluated:
            if type(verdict) is not Verdict:
                raise TypeError(f"verdict is not a Verdict: {verdict!r}")
        _set(self, "stage", stage)
        _set(self, "evaluated", evaluated)
        _set(self, "notes", tuple(notes))

    @classmethod
    def _encoded(cls, stage: Stage, evaluated: tuple, pairs_json: str, notes: tuple[str, ...] = ()) -> "StageRecord":
        """A record trusted as built, for the engine alone: ``evaluated`` holds ``(str, Verdict)`` pairs in
        rule-id order, ``pairs_json`` their ``_PAIR_JSON`` texts joined by commas. Skips the sort and the
        type checks of ``__init__``, stores with ``_set``, and attaches the record's JSON text."""
        record = object.__new__(cls)
        _set(record, "stage", stage)
        _set(record, "evaluated", evaluated)
        _set(record, "notes", notes)
        _set(record, "_json", _record_json(stage, pairs_json, ",".join(map(_quote, notes))))
        return record


class AuditTrace(_Frozen):
    """Ordered stage records ending in the final output.

    Stages appear in pipeline order; stages after the terminating stage are
    absent, so an abstention at exclusions yields exactly two records.
    """

    _fields = ("stages", "final")

    def __init__(self, stages: tuple[StageRecord, ...], final: SystemOutput) -> None:
        stages = tuple(stages)
        if type(final) is not SystemOutput or any(type(record) is not StageRecord for record in stages):
            raise TypeError("trace requires StageRecord stages and a SystemOutput final")
        observed = tuple(record.stage for record in stages)
        if observed != PIPELINE_STAGES[: len(observed)]:
            raise ValueError(f"stages out of pipeline order: {[s.value for s in observed]}")
        if not stages:
            raise ValueError("trace requires at least one stage")
        _set(self, "stages", stages)
        _set(self, "final", final)

    @classmethod
    def _trusted(cls, stages: tuple[StageRecord, ...], final: SystemOutput) -> "AuditTrace":
        """A trace trusted as built, for ``decide`` alone: ``stages`` is a
        tuple of exact ``StageRecord`` instances in pipeline order, at least
        one, and ``final`` an exact ``SystemOutput``. Skips the checks of
        ``__init__``."""
        trace = object.__new__(cls)
        trace.__dict__.update(stages=stages, final=final)
        return trace


def compare_outputs(actual: SystemOutput, expected: ExpectedBehavior) -> MatchLevel:
    """Grade an output against an expectation.

    Same action and same detail is a full match; a wildcard detail matches
    any detail of that action. Same action with different detail is an
    action match. Different actions are a mismatch.
    """
    if actual.action is not expected.action:
        return _MISMATCH
    if actual.action is _RECOMMEND:
        if expected.class_id is None or expected.class_id == actual.class_id:
            return _FULL
        return _ACTION
    assert actual.reason is not None
    if expected.category is None or expected.category is actual.reason.category:
        return _FULL
    return _ACTION


# JSON text of each enum member, built once so that encoding a trace runs no
# ``Enum.value`` descriptor per verdict.
_STAGE_JSON = {stage: _quote(stage.value) for stage in Stage}
_VERDICT_JSON = {verdict: _quote(verdict.value) for verdict in Verdict}
_CATEGORY_JSON = {category: _quote(category.value) for category in AbstentionCategory}
_ANY_JSON = '"any"'


def _encode_output(output: SystemOutput) -> str:
    text = output._json
    if text is None:
        if output.action is _RECOMMEND:
            text = f'{{"action":"recommend","class":{_quote(output.class_id)}}}'
        else:
            reason = output.reason
            assert reason is not None
            labels = ",".join(map(_quote, reason.labels))
            text = f'{{"action":"abstain","category":{_CATEGORY_JSON[reason.category]},"labels":[{labels}]}}'
        _set(output, "_json", text)
    return text


def _value_json(value: FieldValue) -> str:
    """Canonical JSON text of a field value: a boolean or an integer as
    JSON writes it, a token as a string, a decimal as a string with exactly
    four fractional digits, and a token set as an array of its tokens in
    sorted order."""
    kind, payload = value.kind, value.value
    if kind is _TOKEN:
        return _quote(payload)
    if kind is _BOOLEAN:
        return "true" if payload else "false"
    if kind is _INTEGER:
        return int.__repr__(payload)  # what json.dumps writes, for an int subclass too
    if kind is _DECIMAL:
        return f'"{format(payload, ".4f")}"'
    return f"[{','.join(map(_quote, sorted(payload)))}]"


def _expected_json(expected: ExpectedBehavior) -> str:
    """Canonical JSON text of an expectation: ``{"recommend":<class>}`` or
    ``{"abstain":<category>}``, with ``"any"`` for a wildcard detail."""
    if expected.action is _RECOMMEND:
        class_id = expected.class_id
        return f'{{"recommend":{_ANY_JSON if class_id is None else _quote(class_id)}}}'
    category = expected.category
    return f'{{"abstain":{_ANY_JSON if category is None else _CATEGORY_JSON[category]}}}'


# Per verdict, the JSON text of a ``[rule_id, verdict]`` pair of a stage record from ``_quote(rule_id)``.
_PAIR_JSON = {verdict: f"[{{}},{text}]".format for verdict, text in _VERDICT_JSON.items()}


def _record_json(stage: Stage, pairs_json: str, notes_json: str) -> str:
    return f'{{"evaluated":[{pairs_json}],"notes":[{notes_json}],"stage":{_STAGE_JSON[stage]}}}'


def _encode_record(record: StageRecord) -> str:
    text = record._json
    if text is None:
        pairs_json = ",".join([_PAIR_JSON[verdict](_quote(rule_id)) for rule_id, verdict in record.evaluated])
        text = _record_json(record.stage, pairs_json, ",".join(map(_quote, record.notes)))
        _set(record, "_json", text)
    return text


def canonical_serialize(value: SystemOutput | StageRecord | AuditTrace) -> bytes:
    """Canonical UTF-8 JSON bytes of an exact ``SystemOutput``,
    ``StageRecord`` or ``AuditTrace``; any other value, subclasses included,
    raises ``TypeError``.

    The text is written straight from the value, in the key layout the
    README gives: keys in sorted order, every string through the escaper
    ``json.dumps(ensure_ascii=False)`` uses, enum members from tables. A
    record or output that carries its text is not encoded again: the engine
    joins each record's text from pair texts that the same per-pair
    encoder (``_PAIR_JSON``) wrote once per policy (a vetoed rule's, once
    per stage-4 entry), and any other is encoded here once and keeps it. No float or non-member enum can reach the bytes:
    a non-``str`` id, note or label raises ``TypeError`` here, and stages,
    verdicts and categories are type-checked when their records are built.
    """
    kind = type(value)
    if kind is AuditTrace:
        stages = ",".join([_encode_record(record) for record in value.stages])
        return f'{{"final":{_encode_output(value.final)},"stages":[{stages}]}}'.encode("utf-8")
    if kind is SystemOutput:
        return _encode_output(value).encode("utf-8")
    if kind is StageRecord:
        return _encode_record(value).encode("utf-8")
    raise TypeError(f"not an output, stage record or trace: {kind.__name__}")
