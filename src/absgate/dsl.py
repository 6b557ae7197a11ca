"""Parser and printer for the policy definition language.

The language is a line-oriented, UTF-8 statement list; ``#`` starts a
comment that runs to end of line. Statements begin with a keyword, so the
parser recovers from a malformed statement by skipping to the next keyword
and keeps reporting. Grammar::

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
``format_policy`` emits text that re-parses to an equal canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

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
    typecheck,
)
from .diagnostics import Diagnostic, Severity, has_errors
from .model import IDENT_RE, TOKEN_RE, INT64_MAX, INT64_MIN, FieldKind, FieldValue
from .policy import (
    ClassDecl,
    ClinicalRule,
    ConsistencyConstraint,
    ExclusionRule,
    FieldDecl,
    Policy,
    StewardshipSpec,
    StewardshipVeto,
)

__all__ = ["parse_policy", "format_policy"]

_TOKEN_RE = re.compile(
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


@dataclass(frozen=True)
class _Tok:
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
# and "or" on a path from the whole condition down to one of its terms. A
# tree is at most this deep, which keeps checking, printing and hashing a
# policy well inside the interpreter's default recursion limit.
MAX_NESTING = 100
# The most "(" and "not" open at one point of a condition's text. Printing
# wraps each "and", "or" and "not" in parentheses, so the printed text of a
# tree MAX_NESTING high opens at most twice that. Parsing recurses at most
# three frames per open "(", so this also bounds the parser's recursion.
_MAX_OPEN = 2 * MAX_NESTING


def _nested(height: int, tok: _Tok) -> int:
    if height > MAX_NESTING:
        raise _ParseError(f"condition nests deeper than {MAX_NESTING} levels", tok, "nesting_too_deep")
    return height


def _open(opened: int, tok: _Tok) -> int:
    if opened > _MAX_OPEN:
        raise _ParseError(f"condition has more than {_MAX_OPEN} '(' and 'not' open at once", tok, "nesting_too_deep")
    return opened


def _lex(text: str, diags: list[Diagnostic]) -> list[_Tok]:
    tokens: list[_Tok] = []
    pos = 0
    line = 1
    line_start = 0
    length = len(text)
    while pos < length:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            col = pos - line_start + 1
            diags.append(
                Diagnostic(Severity.ERROR, "unexpected_character", f"unexpected character {text[pos]!r}", line, col)
            )
            pos += 1
            continue
        kind = match.lastgroup or ""
        lexeme = match.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Tok(kind, lexeme, line, match.start() - line_start + 1))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + lexeme.rfind("\n") + 1
        pos = match.end()
    tokens.append(_Tok("EOF", "", line, (length - line_start) + 1))
    return tokens


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
        self.rule_ids: set[str] = set()
        self.rules: list[tuple[_Tok, list[_Tok], Condition, _Tok, list[_Tok]]] = []
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

    def expect_word(self, word: str) -> _Tok:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise _ParseError(f"expected '{word}', found {tok.text!r}", tok)
        return self.advance()

    def expect_punct(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            raise _ParseError(f"expected '{text}', found {tok.text!r}", tok)
        return self.advance()

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def ident(self, what: str) -> _Tok:
        tok = self.expect_kind("IDENT", what)
        if not IDENT_RE.match(tok.text):
            raise _ParseError(f"{what} is not an identifier: {tok.text!r}", tok)
        return tok

    def token_value(self, what: str) -> _Tok:
        tok = self.expect_kind("IDENT", what)
        if not TOKEN_RE.match(tok.text):
            raise _ParseError(f"{what} must match [a-z][a-z0-9_]*: {tok.text!r}", tok)
        return tok

    def error(self, code: str, message: str, tok: _Tok) -> None:
        self.diags.append(Diagnostic(Severity.ERROR, code, message, tok.line, tok.col))

    # --- statement loop -------------------------------------------------
    def run(self) -> None:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text in _STATEMENTS:
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
            if tok.kind == "EOF" or (tok.kind == "IDENT" and tok.text in _STATEMENTS):
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
            if self.at_punct(","):
                self.advance()
        if not items:
            raise _ParseError(f"expected at least one {what}", self.peek())
        return items

    def _braced_tokens(self, what: str) -> Iterator[_Tok]:
        # Yields each token of "{" TOKEN ("," | TOKEN)* "}" as it is read,
        # so a caller's diagnostics precede a later syntax error.
        self.expect_punct("{")
        while not self.at_punct("}"):
            yield self.token_value(what)
            if self.at_punct(","):
                self.advance()
        self.expect_punct("}")

    # --- statements -----------------------------------------------------
    def _stmt_policy(self) -> None:
        tok = self.expect_word("policy")
        name = self.ident("policy id")
        self.expect_word("version")
        version = self.token_value("version")
        if self.header is not None:
            self.error("duplicate_header", "policy header declared twice", tok)
            return
        self.header = (name.text, version.text)

    def _stmt_field(self) -> None:
        self.expect_word("field")
        name = self.ident("field name")
        self.expect_punct(":")
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
            if self.at_word("risk"):
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
        tokens: list[str] = []
        for tok in self._braced_tokens("enumeration token"):
            if tok.text in tokens:
                self.error("duplicate_enum_token", f"enumeration token '{tok.text}' repeated", tok)
            else:
                tokens.append(tok.text)
        if not tokens:
            raise _ParseError("enumeration must list at least one token", self.peek())
        return tuple(tokens)

    def _stmt_class(self) -> None:
        self.expect_word("class")
        name = self.ident("class id")
        self.expect_word("rank")
        rank_tok = self.expect_kind("INT", "rank integer")
        escalation = False
        if self.at_word("escalation"):
            self.advance()
            escalation = True
        if name.text in self.classes:
            self.error("duplicate_class", f"class '{name.text}' declared twice", name)
            return
        rank = int(rank_tok.text)
        if rank < 1:
            self.error("invalid_rank", f"rank must be positive: {rank}", rank_tok)
            return
        self.classes[name.text] = ClassDecl(name.text, rank, escalation)

    def _stmt_require(self) -> None:
        self.expect_word("require")
        for tok in self._ident_list("required field name"):
            self.required.setdefault(tok.text, tok)

    def _stmt_known_risks(self) -> None:
        self.expect_word("known_risks")
        self.known_risks.update(tok.text for tok in self._braced_tokens("risk token"))

    def _stmt_consistency(self) -> None:
        self.expect_word("consistency")
        name = self.ident("consistency id")
        self.expect_word("forbid")
        forbid = self._condition()
        if self._claim_rule_id(name):
            self.consistency.append(ConsistencyConstraint(name.text, forbid))

    def _stmt_exclude(self) -> None:
        self.expect_word("exclude")
        name = self.ident("exclusion id")
        self.expect_word("label")
        label = self.ident("exclusion label")
        self.expect_word("when")
        when = self._condition()
        if not self._claim_rule_id(name):
            return
        if any(e.label == label.text for e in self.exclusions):
            self.error("duplicate_label", f"exclusion label '{label.text}' declared twice", label)
            return
        self.exclusions.append(ExclusionRule(name.text, label.text, when))

    def _stmt_rule(self) -> None:
        self.expect_word("rule")
        name = self.ident("rule id")
        requires: list[_Tok] = []
        if self.at_word("requires"):
            self.advance()
            requires = self._ident_list("required field name")
        self.expect_word("when")
        when = self._condition()
        self.expect_word("candidate")
        candidate = self.ident("candidate class id")
        incompatible: list[_Tok] = []
        if self.at_word("incompatible"):
            self.advance()
            incompatible = self._ident_list("rule id")
        if self._claim_rule_id(name):
            self.rules.append((name, requires, when, candidate, incompatible))

    def _stmt_stewardship(self) -> None:
        tok = self.expect_word("stewardship")
        self.expect_punct("{")
        self.expect_word("escalation_justified_when")
        justification = self._condition()
        vetoes: list[tuple[_Tok, _Tok, Condition]] = []
        while self.at_word("veto"):
            self.advance()
            veto_id = self.ident("veto id")
            self.expect_word("class")
            class_id = self.ident("vetoed class id")
            self.expect_word("when")
            when = self._condition()
            if self._claim_rule_id(veto_id):
                vetoes.append((veto_id, class_id, when))
        self.expect_punct("}")
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
    # Each method below takes the number of "(" and "not" open around it, so
    # that too deep a nesting stops before the recursion does, and returns
    # its condition with the tree's height (see MAX_NESTING and _MAX_OPEN).
    def _condition(self) -> Condition:
        return self._expr(0)[0]

    def _expr(self, opened: int) -> tuple[Condition, int]:
        left, height = self._and_expr(opened)
        while self.at_word("or"):
            tok = self.advance()
            right, right_height = self._and_expr(opened)
            left = Or(left, right, line=left.line, col=left.col)
            height = _nested(max(height, right_height) + 1, tok)
        return left, height

    def _and_expr(self, opened: int) -> tuple[Condition, int]:
        left, height = self._not_expr(opened)
        while self.at_word("and"):
            tok = self.advance()
            right, right_height = self._not_expr(opened)
            left = And(left, right, line=left.line, col=left.col)
            height = _nested(max(height, right_height) + 1, tok)
        return left, height

    def _not_expr(self, opened: int) -> tuple[Condition, int]:
        tok = self.peek()
        if not (self.at_word("not") or self.at_punct("(")):
            return self._atom(), 0
        self.advance()
        opened = _open(opened + 1, tok)
        if tok.text == "not":
            inner, height = self._not_expr(opened)
            return Not(inner, line=tok.line, col=tok.col), _nested(height + 1, tok)
        inner, height = self._expr(opened)
        self.expect_punct(")")
        return inner, height

    def _atom(self) -> Condition:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in ("true", "false"):
            self.advance()
            return Literal(tok.text == "true", line=tok.line, col=tok.col)
        if tok.kind == "IDENT" and tok.text in ("present", "absent"):
            self.advance()
            self.expect_punct("(")
            name = self.ident("field name")
            self.expect_punct(")")
            node_type = Present if tok.text == "present" else Absent
            return node_type(name.text, line=tok.line, col=tok.col)
        if tok.kind == "IDENT":
            name = self.ident("field name")
            nxt = self.peek()
            if nxt.kind == "OP":
                op = self.advance().text
                literal = self._literal()
                return Comparison(name.text, op, literal, line=name.line, col=name.col)
            if nxt.kind == "IDENT" and nxt.text == "has":
                self.advance()
                member = self.token_value("member token")
                return Has(name.text, member.text, line=name.line, col=name.col)
            raise _ParseError(f"expected a comparison or 'has' after field {name.text!r}", nxt)
        raise _ParseError(f"expected a condition, found {tok.text!r}", tok)

    def _literal(self) -> FieldValue:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            value = int(tok.text)
            if not INT64_MIN <= value <= INT64_MAX:
                raise _ParseError(f"integer literal out of 64-bit range: {tok.text}", tok)
            return FieldValue.integer(value)
        if tok.kind == "DECIMAL":
            self.advance()
            try:
                return FieldValue.decimal(tok.text)
            except ValueError as exc:
                raise _ParseError(str(exc), tok) from exc
        if tok.kind == "IDENT":
            self.advance()
            if tok.text in ("true", "false"):
                return FieldValue.boolean(tok.text == "true")
            if not TOKEN_RE.match(tok.text):
                raise _ParseError(f"token literal must match [a-z][a-z0-9_]*: {tok.text!r}", tok)
            return FieldValue.token(tok.text)
        raise _ParseError(f"expected a literal, found {tok.text!r}", tok)

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

        for name, tok in self.required.items():
            if name not in self.fields:
                self.error("unknown_field", f"required field '{name}' is not declared", tok)

        # Only clinical rules may be named in an incompatible clause; rule_ids
        # also holds consistency, exclusion and veto ids.
        clinical_ids = {name.text for name, *_ in self.rules}
        for name, requires, when, candidate, incompatible in self.rules:
            self.diags.extend(typecheck(when, self.fields))
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
            self.diags.extend(typecheck(constraint.forbid, self.fields))
        for exclusion in self.exclusions:
            self.diags.extend(typecheck(exclusion.when, self.fields))
        if self.justification is not None:
            self.diags.extend(typecheck(self.justification, self.fields))
        for veto_id, class_tok, when in self.vetoes:
            self.diags.extend(typecheck(when, self.fields))
            if class_tok.text not in self.classes:
                self.error(
                    "unknown_class", f"veto '{veto_id.text}' targets undeclared class '{class_tok.text}'", class_tok
                )

        if has_errors(self.diags):
            return None
        assert self.header is not None and self.justification is not None
        clinical = tuple(
            ClinicalRule(
                name.text,
                when,
                candidate.text,
                tuple(dict.fromkeys(t.text for t in requires)),
                tuple(dict.fromkeys(t.text for t in incompatible)),
            )
            for name, requires, when, candidate, incompatible in self.rules
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
        except ValueError as exc:  # structural invariant not covered above
            self.diags.append(Diagnostic(Severity.ERROR, "invalid_policy", str(exc)))
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
    """Emit policy text that parses back to an equal canonical form."""
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
