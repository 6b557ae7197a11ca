r"""Parser and printer for the policy definition language.

The language is a line-oriented, UTF-8 statement list; ``#`` starts a
comment that runs to end of line. The lexer reads each line with one
``findall`` of (gap, lexeme) pairs. A gap holds characters that
``str.isspace`` accepts; a lexeme is a token, a comment, or one other
character, an ``unexpected_character`` error. Only ``\n`` ends a line, for
the line and column of every token and diagnostic; ``\r``, form feed and
the other Unicode line separators are whitespace within a line.
Statements begin with a keyword, so the parser recovers from a malformed
statement by skipping to the next keyword and keeps reporting. A name
listed twice by ``require``, ``known_risks``, ``requires`` or
``incompatible`` is a ``duplicate_name`` error at the repeat. Grammar::

    policy      := "policy" IDENT "version" TOKEN
    field       := "field" IDENT ":" ftype
    ftype       := "bool" | "int" | "decimal"
                 | "token"    "{" IDENT ("," IDENT)* "}"
                 | "tokenset" "{" IDENT ("," IDENT)* "}"
                 | "tokenset" "risk"
    class       := "class" IDENT "rank" INT ["escalation"]
    require     := "require" IDENT ("," IDENT)*
    known_risks := "known_risks" "{" IDENT* "}"
    consistency := "consistency" IDENT "forbid" expr
    exclude     := "exclude" IDENT "label" IDENT "when" expr
    rule        := "rule" IDENT ["requires" IDENT+] "when" expr
                   "candidate" IDENT ["incompatible" IDENT+]
    stewardship := "stewardship" "{"
                       "escalation_justified_when" expr
                       ("veto" IDENT "class" IDENT "when" expr)*
                   "}"
    expr        := and_expr ("or" and_expr)*
    and_expr    := not_expr ("and" not_expr)*
    not_expr    := "not" not_expr | atom
    atom        := "(" expr ")" | "true" | "false"
                 | "present" "(" IDENT ")" | "absent" "(" IDENT ")"
                 | IDENT "has" TOKEN
                 | IDENT ("==" | "!=" | "<" | "<=" | ">" | ">=") literal
    literal     := "true" | "false" | INT | DECIMAL | TOKEN

A condition tree is at most ``MAX_NESTING`` levels of "not", "and" and "or"
high, and its text has at most ``2 * MAX_NESTING`` of "(" and "not" open at
once; either excess is the error ``nesting_too_deep``. The second limit
admits the text ``format_policy`` prints for any tree the first admits.

``parse_policy`` returns the policy together with all diagnostics; the
policy is None exactly when an error-level diagnostic was raised.
The ``Policy`` holds its declarations in id order, and ``format_policy``
prints them so, as text that re-parses to an equal policy.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import getitem
from typing import Container, Iterable, Iterator, NamedTuple

from .condition import (
    Absent,
    And,
    Comparison,
    Condition,
    Has,
    Literal,
    Not,
    Or,
    Present,
    print_condition,
)
from .diagnostics import Diagnostic, Severity, has_errors
from .model import _BOOLEAN, _DECIMAL, _INTEGER, _TOKEN, TOKEN_RE, INT64_MAX, INT64_MIN, FieldKind, FieldValue
from .policy import (
    ClassDecl,
    ClinicalRule,
    ConsistencyConstraint,
    ExclusionRule,
    FieldDecl,
    Policy,
    StewardshipSpec,
    StewardshipVeto,
    reference_findings,
)

__all__ = ["parse_policy", "format_policy"]

# Each match is the gap of whitespace before a lexeme, then the lexeme: an
# IDENT, a comment, an INT or DECIMAL, an OP, a PUNCT, or else one character,
# which is unexpected. So the matches cover a line but for whitespace after
# its last lexeme. An IDENT is spelled as IDENT_RE asks.
_SCAN_RE = re.compile(r"(\s*)([A-Za-z_][A-Za-z0-9_]*|#.*|-?[0-9]+(?:\.[0-9]+)?|[=!<>]=|[<>{}(),:]|\S)")
# A lexeme's kind by its first character, but a lone "-", "=" or "!" starts
# no token. A character missing here is unexpected.
_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", "IDENT"),
    **dict.fromkeys("-0123456789", "INT"),
    **dict.fromkeys("=!<>", "OP"),
    **dict.fromkeys("{}(),:", "PUNCT"),
    "#": "COMMENT",
}


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


class _ParseError(Exception):
    def __init__(self, message: str, tok: _Tok, code: str = "syntax_error"):
        super().__init__(message)
        self.message = message
        self.tok = tok
        self.code = code


# The greatest height a condition tree may have: the most of "not", "and"
# and "or" on a path from the whole condition down to one of its terms.
# This and _MAX_OPEN are rules of the language, not guards of the parser,
# which keeps explicit stacks and does not recurse. The text
# ``format_policy`` prints for any tree it admits parses back. A tree built
# in code may be deeper: checking, printing and hashing walk trees with an
# explicit stack, so its policy still hashes, validates, formats and
# decides, but the formatted text is refused with nesting_too_deep.
MAX_NESTING = 100
# The most "(" and "not" open at one point of a condition's text. Printing
# wraps each "and", "or" and "not" in parentheses, so the printed text of a
# tree MAX_NESTING high opens at most twice that.
_MAX_OPEN = 2 * MAX_NESTING
# How tightly each operator binds: "not" tightest, then "and", then "or".
_BINDS = {"or": 1, "and": 2, "not": 3}


def _lex(text: str, diags: list[Diagnostic]) -> list[_Tok]:
    tokens: list[_Tok] = []
    new = tuple.__new__  # skips the Python-level __new__ that NamedTuple generates
    # One findall per line: the pairs of the whole text, alive at once, would
    # double the garbage collector's passes while they are read.
    for line, row in enumerate(text.split("\n"), 1):
        col = 1
        for gap, lexeme in _SCAN_RE.findall(row):
            col += len(gap)
            kind = _KINDS.get(lexeme[0])
            if kind == "IDENT" or kind == "PUNCT":
                tokens.append(new(_Tok, (kind, lexeme, line, col)))
            elif kind is None or lexeme in ("-", "=", "!"):
                diags.append(
                    Diagnostic(Severity.ERROR, "unexpected_character", f"unexpected character {lexeme!r}", line, col)
                )
            elif kind != "COMMENT":
                tokens.append(new(_Tok, ("DECIMAL" if "." in lexeme else kind, lexeme, line, col)))
            col += len(lexeme)
    tokens.append(_Tok("EOF", "", line, len(row) + 1))
    return tokens


def _int64(text: str) -> int | None:
    """The value of an INT token, or None outside the signed 64-bit range.

    The significant digits are counted before ``int()`` runs, so the answer
    does not depend on the interpreter's limit on int-string digits.
    """
    digits = text.lstrip("-").lstrip("0")
    if len(digits) > 19:  # the digits of INT64_MAX
        return None
    value = int(digits or "0")
    if text.startswith("-"):
        value = -value
    return value if INT64_MIN <= value <= INT64_MAX else None


_SCALAR_TYPES = {"bool": FieldKind.BOOLEAN, "int": FieldKind.INTEGER, "decimal": FieldKind.DECIMAL}
_SCALAR_NAMES = {kind: name for name, kind in _SCALAR_TYPES.items()}


class _Parser:
    def __init__(self, tokens: list[_Tok], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags
        self.header: tuple[str, str] | None = None
        self.fields: dict[str, FieldDecl] = {}
        self.classes: dict[str, ClassDecl] = {}
        # First token of each required name, for the unknown_field position.
        self.required: dict[str, _Tok] = {}
        self.known_risks: set[str] = set()
        self.consistency: list[ConsistencyConstraint] = []
        self.exclusions: list[ExclusionRule] = []
        self.labels: set[str] = set()  # of self.exclusions
        self.rule_ids: set[str] = set()
        self.rules: list[tuple[_Tok, Condition, _Tok, list[_Tok], list[_Tok]]] = []  # as reference_findings takes it
        self.justification: Condition | None = None
        self.vetoes: list[tuple[_Tok, _Tok, Condition]] = []

    # --- token plumbing -------------------------------------------------
    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def advance(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect_kind(self, kind: str, what: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise _ParseError(f"expected {what}, found {tok.text!r}", tok)
        return self.advance()

    # A keyword or a punctuator. Only an IDENT token spells a word and only a
    # PUNCT token a punctuator, so the text alone tells them.
    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.text != text:
            raise _ParseError(f"expected '{text}', found {tok.text!r}", tok)
        return self.advance()

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def token_value(self, what: str) -> _Tok:
        tok = self.expect_kind("IDENT", what)
        if not TOKEN_RE.match(tok.text):
            raise _ParseError(f"{what} must match [a-z][a-z0-9_]*: {tok.text!r}", tok)
        return tok

    def error(self, code: str, message: str, tok: _Tok | Diagnostic) -> None:
        self.diags.append(Diagnostic(Severity.ERROR, code, message, tok.line, tok.col))

    # --- statement loop -------------------------------------------------
    def run(self) -> None:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.text in _STATEMENTS:
                try:
                    _STATEMENTS[tok.text](self)
                except _ParseError as exc:
                    self.error(exc.code, exc.message, exc.tok)
                    self._recover()
            else:
                self.error("syntax_error", f"expected a statement keyword, found {tok.text!r}", tok)
                self.advance()
                self._recover()

    def _recover(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "EOF" or tok.text in _STATEMENTS:
                return
            self.advance()

    def _ident_list(self, what: str) -> list[_Tok]:
        # Identifiers separated by optional commas, ending at the next
        # list/section keyword or statement boundary.
        items: list[_Tok] = []
        while True:
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text in _STATEMENTS:
                break
            if items and tok.text in ("when", "candidate", "incompatible", "requires"):
                break
            items.append(self.advance())
            if self.at(","):
                self.advance()
        if not items:
            raise _ParseError(f"expected at least one {what}", self.peek())
        return items

    def _braced_tokens(self, what: str) -> Iterator[_Tok]:
        # Yields each token of "{" TOKEN ("," | TOKEN)* "}" as it is read,
        # so a caller's diagnostics precede a later syntax error.
        self.expect("{")
        while not self.at("}"):
            yield self.token_value(what)
            if self.at(","):
                self.advance()
        self.expect("}")

    def _distinct(
        self, toks: Iterable[_Tok], what: str, seen: Container[str] = (), code: str = "duplicate_name"
    ) -> list[_Tok]:
        # The tokens of a list of names but each repeat, which is an error at
        # its token; ``seen`` holds the names earlier statements listed.
        kept: dict[str, _Tok] = {}
        for tok in toks:
            if tok.text in kept or tok.text in seen:
                self.error(code, f"{what} '{tok.text}' repeated", tok)
            else:
                kept[tok.text] = tok
        return list(kept.values())

    # --- statements -----------------------------------------------------
    def _stmt_policy(self) -> None:
        tok = self.expect("policy")
        name = self.expect_kind("IDENT", "policy id")
        self.expect("version")
        version = self.token_value("version")
        if self.header is not None:
            self.error("duplicate_header", "policy header declared twice", tok)
            return
        self.header = (name.text, version.text)

    def _stmt_field(self) -> None:
        self.expect("field")
        name = self.expect_kind("IDENT", "field name")
        self.expect(":")
        kind_tok = self.expect_kind("IDENT", "field type")
        enum: tuple[str, ...] | None = None
        is_risk = False
        if kind_tok.text in _SCALAR_TYPES:
            kind = _SCALAR_TYPES[kind_tok.text]
        elif kind_tok.text == "token":
            kind = FieldKind.TOKEN
            enum = self._enum_block()
        elif kind_tok.text == "tokenset":
            kind = FieldKind.TOKEN_SET
            if self.at("risk"):
                self.advance()
                is_risk = True
            else:
                enum = self._enum_block()
        else:
            raise _ParseError(f"unknown field type {kind_tok.text!r}", kind_tok)
        if name.text in self.fields:
            self.error("duplicate_field", f"field '{name.text}' declared twice", name)
            return
        try:
            self.fields[name.text] = FieldDecl(name.text, kind, enum, is_risk)
        except ValueError as exc:
            self.error("invalid_field", str(exc), name)

    def _enum_block(self) -> tuple[str, ...]:
        what = "enumeration token"
        tokens = self._distinct(self._braced_tokens(what), what, code="duplicate_enum_token")
        if not tokens:
            raise _ParseError("enumeration must list at least one token", self.peek())
        return tuple(tok.text for tok in tokens)

    def _stmt_class(self) -> None:
        self.expect("class")
        name = self.expect_kind("IDENT", "class id")
        self.expect("rank")
        rank_tok = self.expect_kind("INT", "rank integer")
        escalation = False
        if self.at("escalation"):
            self.advance()
            escalation = True
        if name.text in self.classes:
            self.error("duplicate_class", f"class '{name.text}' declared twice", name)
            return
        rank = _int64(rank_tok.text)
        if rank is None and not rank_tok.text.startswith("-"):
            self.error("invalid_rank", f"rank out of 64-bit range: {rank_tok.text}", rank_tok)
            return
        if rank is None or rank < 1:
            # Spelled as int() would print it, without converting all the digits.
            shown = rank if rank is not None else "-" + rank_tok.text.lstrip("-0")
            self.error("invalid_rank", f"rank must be positive: {shown}", rank_tok)
            return
        self.classes[name.text] = ClassDecl(name.text, rank, escalation)

    def _stmt_require(self) -> None:
        self.expect("require")
        for tok in self._distinct(self._ident_list("required field name"), "required field", self.required):
            self.required[tok.text] = tok

    def _stmt_known_risks(self) -> None:
        self.expect("known_risks")
        tokens = self._distinct(self._braced_tokens("risk token"), "risk token", self.known_risks)
        self.known_risks.update(tok.text for tok in tokens)

    def _stmt_consistency(self) -> None:
        self.expect("consistency")
        name = self.expect_kind("IDENT", "consistency id")
        self.expect("forbid")
        forbid = self._condition()
        if self._claim_rule_id(name):
            self.consistency.append(ConsistencyConstraint(name.text, forbid))

    def _stmt_exclude(self) -> None:
        self.expect("exclude")
        name = self.expect_kind("IDENT", "exclusion id")
        self.expect("label")
        label = self.expect_kind("IDENT", "exclusion label")
        self.expect("when")
        when = self._condition()
        if not self._claim_rule_id(name):
            return
        if label.text in self.labels:
            self.error("duplicate_label", f"exclusion label '{label.text}' declared twice", label)
            return
        self.labels.add(label.text)
        self.exclusions.append(ExclusionRule(name.text, label.text, when))

    def _stmt_rule(self) -> None:
        self.expect("rule")
        name = self.expect_kind("IDENT", "rule id")
        requires: list[_Tok] = []
        if self.at("requires"):
            self.advance()
            requires = self._distinct(self._ident_list("required field name"), "required field")
        self.expect("when")
        when = self._condition()
        self.expect("candidate")
        candidate = self.expect_kind("IDENT", "candidate class id")
        incompatible: list[_Tok] = []
        if self.at("incompatible"):
            self.advance()
            incompatible = self._distinct(self._ident_list("rule id"), "incompatible rule")
        if self._claim_rule_id(name):
            self.rules.append((name, when, candidate, requires, incompatible))

    def _stmt_stewardship(self) -> None:
        tok = self.expect("stewardship")
        self.expect("{")
        self.expect("escalation_justified_when")
        justification = self._condition()
        vetoes: list[tuple[_Tok, _Tok, Condition]] = []
        while self.at("veto"):
            self.advance()
            veto_id = self.expect_kind("IDENT", "veto id")
            self.expect("class")
            class_id = self.expect_kind("IDENT", "vetoed class id")
            self.expect("when")
            when = self._condition()
            if self._claim_rule_id(veto_id):
                vetoes.append((veto_id, class_id, when))
        self.expect("}")
        if self.justification is not None:
            self.error("duplicate_stewardship", "stewardship block declared twice", tok)
            return
        self.justification = justification
        self.vetoes = vetoes

    def _claim_rule_id(self, tok: _Tok) -> bool:
        if tok.text in self.rule_ids:
            self.error("duplicate_rule_id", f"rule id '{tok.text}' declared twice", tok)
            return False
        self.rule_ids.add(tok.text)
        return True

    # --- expressions ------------------------------------------------------
    # These read ``self.tokens[self.pos]`` in place of ``peek`` and step
    # ``self.pos`` past a token already matched, which is never EOF.
    def _condition(self) -> Condition:
        # Shunting-yard (Dijkstra): ``ops`` holds the pending "(", "not",
        # "and" and "or" tokens, ``terms`` each finished operand with its
        # tree height, and ``opened`` counts the "(" and "not" in ``ops``.
        tokens = self.tokens
        ops: list[_Tok] = []
        terms: list[tuple[Condition, int]] = []
        opened = 0
        while True:
            tok = tokens[self.pos]
            if tok.text == "not" or tok.text == "(":
                ops.append(tok)
                self.pos += 1
                opened += 1
                if opened > _MAX_OPEN:
                    message = f"condition has more than {_MAX_OPEN} '(' and 'not' open at once"
                    raise _ParseError(message, tok, "nesting_too_deep")
                continue
            terms.append((self._atom(), 0))
            # An operand has ended. Each pending operator that binds at least
            # as tightly as the next token applies, so an operator applies as
            # soon as its right operand ends; then a matched "(" closes.
            while True:
                nxt = tokens[self.pos]
                binds = _BINDS[nxt.text] if nxt.text == "and" or nxt.text == "or" else 0
                if ops and ops[-1].text != "(" and _BINDS[ops[-1].text] >= binds:
                    op = ops.pop()
                    right, height = terms.pop()
                    if op.text == "not":
                        opened -= 1
                        node: Condition = Not(right, line=op.line, col=op.col)
                    else:
                        left, left_height = terms.pop()
                        node = (And if op.text == "and" else Or)(left, right, line=left.line, col=left.col)
                        height = max(height, left_height)
                    if height >= MAX_NESTING:
                        raise _ParseError(f"condition nests deeper than {MAX_NESTING} levels", op, "nesting_too_deep")
                    terms.append((node, height + 1))
                elif binds:
                    ops.append(nxt)
                    self.pos += 1
                    break
                elif not ops:
                    return terms[0][0]
                else:
                    self.expect(")")
                    ops.pop()
                    opened -= 1

    def _atom(self) -> Condition:
        tok = self.tokens[self.pos]
        if tok.text in ("true", "false"):
            self.pos += 1
            return Literal(tok.text == "true", line=tok.line, col=tok.col)
        if tok.text in ("present", "absent"):
            self.pos += 1
            self.expect("(")
            name = self.expect_kind("IDENT", "field name")
            self.expect(")")
            return (Present if tok.text == "present" else Absent)(name.text, line=tok.line, col=tok.col)
        if tok.kind != "IDENT":
            raise _ParseError(f"expected a condition, found {tok.text!r}", tok)
        self.pos += 1
        nxt = self.tokens[self.pos]
        if nxt.kind == "OP":
            self.pos += 1
            return Comparison(tok.text, nxt.text, self._literal(), line=tok.line, col=tok.col)
        if nxt.text == "has":
            self.pos += 1
            return Has(tok.text, self.token_value("member token").text, line=tok.line, col=tok.col)
        raise _ParseError(f"expected a comparison or 'has' after field {tok.text!r}", nxt)

    def _literal(self) -> FieldValue:
        tok = self.tokens[self.pos]
        if tok.kind not in ("INT", "DECIMAL", "IDENT"):
            raise _ParseError(f"expected a literal, found {tok.text!r}", tok)
        self.pos += 1
        if tok.kind == "INT":
            value = _int64(tok.text)
            if value is None:
                raise _ParseError(f"integer literal out of 64-bit range: {tok.text}", tok)
            return FieldValue(_INTEGER, value)
        if tok.text in ("true", "false"):
            return FieldValue(_BOOLEAN, tok.text == "true")
        # The constructor checks a DECIMAL's range and an IDENT's spelling.
        try:
            return FieldValue(_DECIMAL if tok.kind == "DECIMAL" else _TOKEN, tok.text)
        except ValueError as exc:
            message = str(exc) if tok.kind == "DECIMAL" else f"token literal must match [a-z][a-z0-9_]*: {tok.text!r}"
            raise _ParseError(message, tok) from None

    # --- resolution -------------------------------------------------------
    def resolve(self) -> Policy | None:
        if self.header is None:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no policy header declared"))
        if not self.fields:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no fields declared"))
        if not self.classes:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no classes declared"))
        if self.justification is None:
            self.diags.append(Diagnostic(Severity.ERROR, "missing_section", "no stewardship block declared"))
        rules = [
            (name.text, when, cand.text, [t.text for t in req], [t.text for t in inc])
            for name, when, cand, req, inc in self.rules
        ]
        vetoes = [(v.text, c.text, when) for v, c, when in self.vetoes]
        refusal = None
        if not has_errors(self.diags):
            assert self.header is not None and self.justification is not None
            try:
                return Policy(
                    policy_id=self.header[0],
                    version=self.header[1],
                    schema=tuple(self.fields.values()),
                    classes=tuple(self.classes.values()),
                    stewardship=StewardshipSpec(self.justification, tuple(StewardshipVeto(*v) for v in vetoes)),
                    required=tuple(self.required),
                    known_risks=frozenset(self.known_risks),
                    consistency=tuple(self.consistency),
                    exclusions=tuple(self.exclusions),
                    clinical_rules=tuple(ClinicalRule(*rule) for rule in rules),
                )
            except ValueError as exc:
                refusal = str(exc)
        # Refused or incomplete: report every finding, a name at its token.
        tokens = {"required": list(self.required.values()), "rules": self.rules, "vetoes": self.vetoes}
        for code, message, anchor in reference_findings(
            self.fields,
            self.classes,
            list(self.required),
            rules,
            [c.forbid for c in self.consistency] + [e.when for e in self.exclusions],
            self.justification,
            vetoes,
        ):
            self.error(code, message, anchor if isinstance(anchor, Diagnostic) else reduce(getitem, anchor, tokens))
        if refusal is not None and not has_errors(self.diags):  # an invariant no finding covers
            self.diags.append(Diagnostic(Severity.ERROR, "invalid_policy", refusal))
        return None


# Statement keyword -> the _Parser method that reads that statement.
_STATEMENTS = {
    name.removeprefix("_stmt_"): method for name, method in vars(_Parser).items() if name.startswith("_stmt_")
}


def parse_policy(text: str) -> tuple[Policy | None, list[Diagnostic]]:
    """Parse policy text; returns (policy or None, diagnostics)."""
    diags: list[Diagnostic] = []
    parser = _Parser(_lex(text, diags), diags)
    parser.run()
    return parser.resolve(), diags


def _format_field(decl: FieldDecl) -> str:
    if decl.kind in _SCALAR_NAMES:
        ftype = _SCALAR_NAMES[decl.kind]
    elif decl.kind is FieldKind.TOKEN:
        ftype = "token { " + ", ".join(decl.enum or ()) + " }"
    elif decl.is_risk:
        ftype = "tokenset risk"
    else:
        ftype = "tokenset { " + ", ".join(decl.enum or ()) + " }"
    return f"field {decl.name} : {ftype}"


def format_policy(policy: Policy) -> str:
    """Emit policy text, declarations in id order, that parses back to an
    equal policy."""
    lines: list[str] = [f"policy {policy.policy_id} version {policy.version}", ""]
    lines.extend(_format_field(f) for f in policy.schema)
    lines.append("")
    for decl in policy.classes:
        suffix = " escalation" if decl.escalation_tier else ""
        lines.append(f"class {decl.class_id} rank {decl.spectrum_rank}{suffix}")
    lines.append("")
    if policy.required:
        lines.append("require " + ", ".join(policy.required))
    if policy.known_risks:
        lines.append("known_risks { " + " ".join(sorted(policy.known_risks)) + " }")
    for constraint in policy.consistency:
        lines.append(f"consistency {constraint.rule_id} forbid {print_condition(constraint.forbid)}")
    for exclusion in policy.exclusions:
        lines.append(f"exclude {exclusion.rule_id} label {exclusion.label} when {print_condition(exclusion.when)}")
    for rule in policy.clinical_rules:
        parts = [f"rule {rule.rule_id}"]
        if rule.requires:
            parts.append("requires " + ", ".join(rule.requires))
        parts.append(f"when {print_condition(rule.when)}")
        parts.append(f"candidate {rule.candidate}")
        if rule.incompatible_with:
            parts.append("incompatible " + ", ".join(rule.incompatible_with))
        lines.append(" ".join(parts))
    lines.append("")
    lines.append("stewardship {")
    lines.append(f"    escalation_justified_when {print_condition(policy.stewardship.escalation_justification)}")
    for veto in policy.stewardship.class_vetoes:
        lines.append(f"    veto {veto.rule_id} class {veto.class_id} when {print_condition(veto.when)}")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)
